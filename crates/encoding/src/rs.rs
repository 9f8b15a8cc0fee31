//! The one linear erasure code over GF(2^8) behind every XOR-wire
//! [`CodecSpec`](crate::codec::CodecSpec): `m` parity stripes per slot
//! tolerate any `m` simultaneous erasures in the slot's codeword. The
//! paper's BXOR checksum, RAID-6 P+Q and general Reed–Solomon are the
//! same code with a different generator row, so they share one
//! `coeff`, one `contribs_into` and one `solve_into`.
//!
//! # Generators
//!
//! The coefficient of data position `pos` in parity role `role` is
//!
//! ```text
//! Power:   c[role][pos] = g^(role·pos)             (m ≤ 2)
//! Cauchy:  c[role][pos] = 1 / (role ⊕ (m + pos))   (any m)
//! ```
//!
//! `Power` with `m = 1` is the paper's plain parity (`c = 1`,
//! `CodecSpec::Single(Code::Xor)`); with `m = 2` it is P+Q (`c = (1,
//! g^pos)`, `CodecSpec::Dual`, byte-identical to the reference encoder
//! [`DualParity`](crate::dualparity::DualParity)). It stops at two
//! roles because larger row-subsets of a Vandermonde matrix over
//! GF(2^8) can be singular. `Cauchy` (`CodecSpec::Rs { m }`) draws its
//! x-coordinates (roles `0..m`) and y-coordinates (`m..m+k`) from
//! disjoint byte ranges, so every denominator is nonzero and *every
//! square submatrix is nonsingular*: whichever `e ≤ m` codeword
//! positions are erased and whichever `e` parity roles survive, the
//! `e×e` decode system is invertible. Both families need `m + pos` to
//! stay inside the field (`g` has order 255, so `g^pos` would wrap).
//!
//! # Distributed encode
//!
//! Encoding stays a reduction per parity role: a rank's contribution to
//! role `role` is its data stripe scaled by `c[role][pos]`, and the
//! wire combine is plain bitwise XOR ([`Wire::Bits`]), so the reduction
//! result *is* the parity. The first contributor of a slot produces all
//! roles from one cache-blocked read of its stripe
//! ([`kernels::gf_scale_into`]); every later one folds its stripe
//! straight into the accumulators it was handed
//! ([`kernels::gf_mac_multi`]), the scale fused into the combine.
//!
//! # Decode
//!
//! `solve` picks the first `e` surviving role syndromes, inverts the
//! `e×e` generator submatrix with [`gf256::invert_matrix`]
//! (Gauss–Jordan over the field), and rebuilds the erased stripes
//! syndrome by syndrome: [`kernels::gf_scale_into`] starts every
//! stripe from one read of the first syndrome, [`kernels::gf_mac_multi`]
//! adds each further one — the same chunked, SIMD-dispatched kernels as
//! encoding.

use crate::codec::{ErasureCodec, Wire};
use crate::gf256;
use crate::kernels::{self, KernelConfig};
use std::borrow::Cow;
use std::ops::Range;

/// Which generator matrix a [`GfCodec`] encodes with (see module docs).
/// The two are never aliased: `Power` with `m = 2` and `Cauchy` with
/// `m = 2` produce different parity bytes.
enum Generator {
    Power,
    Cauchy,
}

/// The GF(2^8) codec with `m` parity roles (see module docs).
pub(crate) struct GfCodec {
    m: usize,
    generator: Generator,
    name: Cow<'static, str>,
}

/// The paper's single XOR parity (`CodecSpec::Single(Code::Xor)`).
pub(crate) static XOR: GfCodec = GfCodec {
    m: 1,
    generator: Generator::Power,
    name: Cow::Borrowed("BXOR"),
};

/// RAID-6 P+Q (`CodecSpec::Dual`).
pub(crate) static DUAL: GfCodec = GfCodec {
    m: 2,
    generator: Generator::Power,
    name: Cow::Borrowed("P+Q"),
};

impl GfCodec {
    /// Cauchy Reed–Solomon tolerating `m` erasures per group. `m` must
    /// be at least 1 and small enough that the Cauchy coordinates fit
    /// the field; data positions are then limited to `pos < 256 - m`.
    pub(crate) fn cauchy(m: usize) -> Self {
        assert!(m >= 1, "RS needs at least one parity role");
        assert!(m < 128, "RS over GF(2^8): parity count must stay below 128");
        GfCodec {
            m,
            generator: Generator::Cauchy,
            name: Cow::Owned(format!("RS(m={m})")),
        }
    }

    /// The generator coefficient of data position `pos` in parity role
    /// `role`.
    fn coeff(&self, role: usize, pos: usize) -> u8 {
        assert!(role < self.m, "role {role} out of range for m={}", self.m);
        assert!(
            self.m + pos < 256,
            "{} over GF(2^8): codeword position {pos} exceeds the field (m={})",
            self.name,
            self.m
        );
        match self.generator {
            Generator::Power => gf256::gpow(role * pos),
            Generator::Cauchy => gf256::inv((role as u8) ^ ((self.m + pos) as u8)),
        }
    }

    /// The `erased.len() × erased.len()` decode submatrix for the given
    /// erased positions and surviving roles.
    fn submatrix(&self, roles: &[usize], erased: &[usize]) -> Vec<Vec<u8>> {
        roles
            .iter()
            .map(|&r| erased.iter().map(|&x| self.coeff(r, x)).collect())
            .collect()
    }
}

impl ErasureCodec for GfCodec {
    fn parity_count(&self) -> usize {
        self.m
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn wire(&self) -> Wire {
        Wire::Bits
    }

    fn contribs_into(
        &self,
        roles: &[usize],
        pos: usize,
        stripe: &[f64],
        _cancel: bool,
        outs: &mut [&mut [f64]],
        cfg: KernelConfig,
    ) {
        let coeffs: Vec<u8> = roles.iter().map(|&role| self.coeff(role, pos)).collect();
        kernels::gf_scale_into(outs, stripe, &coeffs, cfg);
    }

    fn accumulate(
        &self,
        roles: &[usize],
        pos: usize,
        stripe: &[f64],
        _cancel: bool,
        accs: &mut [&mut [f64]],
        cfg: KernelConfig,
    ) {
        let coeffs: Vec<u8> = roles.iter().map(|&role| self.coeff(role, pos)).collect();
        kernels::gf_mac_multi(accs, stripe, &coeffs, cfg);
    }

    /// The inversion is of the whole system whichever rows are asked
    /// for; only the asked-for rows are multiplied out.
    fn solve_into(
        &self,
        erased: &[usize],
        rows: Range<usize>,
        syndromes: &[(usize, Vec<f64>)],
        outs: &mut [&mut [f64]],
        cfg: KernelConfig,
    ) {
        let e = erased.len();
        assert!(
            e <= self.m,
            "{} corrects at most {} erasures, got {e}",
            self.name,
            self.m
        );
        assert!(
            syndromes.len() >= e,
            "{}: need {e} surviving roles, have {}",
            self.name,
            syndromes.len()
        );
        // Any e surviving roles suffice (see module docs); take the
        // first e.
        assert_eq!(rows.len(), outs.len(), "one output per row");
        let chosen = &syndromes[..e];
        let Some((_, first)) = chosen.first() else {
            return;
        };
        let roles: Vec<usize> = chosen.iter().map(|(r, _)| *r).collect();
        let a_inv = gf256::invert_matrix(&self.submatrix(&roles, erased))
            .expect("generator submatrices are nonsingular by construction");
        // Column by column: every rebuilt stripe takes its term of one
        // syndrome from a single read of that syndrome.
        let column = |j: usize| {
            a_inv[rows.clone()]
                .iter()
                .map(|row| row[j])
                .collect::<Vec<u8>>()
        };
        kernels::gf_scale_into(outs, first, &column(0), cfg);
        for (j, (_, s)) in chosen.iter().enumerate().skip(1) {
            kernels::gf_mac_multi(outs, s, &column(j), cfg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Code;
    use crate::codec::CodecSpec;

    /// Every spec served by [`GfCodec`].
    const GF_SPECS: [CodecSpec; 5] = [
        CodecSpec::Single(Code::Xor),
        CodecSpec::Dual,
        CodecSpec::Rs { m: 1 },
        CodecSpec::Rs { m: 2 },
        CodecSpec::Rs { m: 3 },
    ];

    fn stripe(pos: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|j| ((pos * 37 + j * 11) as f64).cos() * 512.0)
            .collect()
    }

    fn encode(codec: &dyn ErasureCodec, data: &[Vec<f64>], len: usize) -> Vec<Vec<f64>> {
        (0..codec.parity_count())
            .map(|role| {
                let mut acc = kernels::zeroed(len);
                for (pos, d) in data.iter().enumerate() {
                    let c = codec.contrib(role, pos, d, KernelConfig::serial());
                    kernels::xor_accumulate(&mut acc, &c, KernelConfig::serial());
                }
                acc
            })
            .collect()
    }

    /// Syndrome of `role` with the stripes in `erased` missing.
    fn syndrome(
        codec: &dyn ErasureCodec,
        data: &[Vec<f64>],
        parity: &[f64],
        role: usize,
        erased: &[usize],
        len: usize,
    ) -> Vec<f64> {
        let cfg = KernelConfig::serial();
        let mut acc = kernels::zeroed(len);
        kernels::xor_accumulate(&mut acc, parity, cfg);
        for (pos, d) in data.iter().enumerate() {
            if !erased.contains(&pos) {
                let c = codec.contribs(&[role], pos, d, true, cfg).remove(0);
                kernels::xor_accumulate(&mut acc, &c, cfg);
            }
        }
        acc
    }

    fn subsets(n: usize, m: usize) -> Vec<Vec<usize>> {
        if m == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for first in 0..n {
            for mut rest in subsets(n, m - 1) {
                if rest.iter().all(|&r| r > first) {
                    let mut s = vec![first];
                    s.append(&mut rest);
                    out.push(s);
                }
            }
        }
        out
    }

    #[test]
    fn every_generator_round_trips_every_erasure_subset_with_every_role_subset() {
        for spec in GF_SPECS {
            let codec = spec.resolve();
            let m = codec.parity_count();
            assert_eq!(codec.wire(), Wire::Bits);
            let (k, len) = (5, 9);
            let data: Vec<Vec<f64>> = (0..k).map(|p| stripe(p, len)).collect();
            let parity = encode(codec, &data, len);
            for e in 1..=m {
                for erased in subsets(k, e) {
                    // every e-subset of surviving roles must decode
                    for roles in subsets(m, e) {
                        let syn: Vec<(usize, Vec<f64>)> = roles
                            .iter()
                            .map(|&r| (r, syndrome(codec, &data, &parity[r], r, &erased, len)))
                            .collect();
                        let got = codec.solve(&erased, &syn, KernelConfig::serial());
                        for (at, (g, &x)) in got.iter().zip(&erased).enumerate() {
                            assert!(
                                g.iter()
                                    .zip(&data[x])
                                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                                "{spec:?} erased {erased:?} roles {roles:?} pos {x}"
                            );
                            // one row of the same decode, alone, over a
                            // stale buffer
                            let mut one = vec![f64::NAN; len];
                            codec.solve_at_into(
                                &erased,
                                at,
                                &syn,
                                &mut one,
                                KernelConfig::serial(),
                            );
                            assert!(one.iter().zip(g).all(|(a, b)| a.to_bits() == b.to_bits()));
                        }
                    }
                }
            }
        }
    }

    /// Generator drift would pass every round-trip test while changing
    /// every stored parity byte, CRC witness and report fingerprint, so
    /// the parity of a fixed input is pinned per spec. The input is
    /// integer-derived bit patterns (no libm), 67 words so the SIMD
    /// kernels run both their main loop and their tail.
    #[test]
    fn parity_bytes_match_the_golden_crcs() {
        let (k, len) = (5usize, 67usize);
        let data: Vec<Vec<f64>> = (0..k)
            .map(|p| {
                (0..len)
                    .map(|j| {
                        let x = ((p * len + j) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        f64::from_bits(x ^ (x >> 29))
                    })
                    .collect()
            })
            .collect();
        // Taken at the parent of the commit that merged the codecs.
        let golden: [&[u32]; 5] = [
            &[0x5d76_0ce5],
            &[0x5d76_0ce5, 0x7a5c_596d],
            &[0x1961_572c],
            &[0x91f9_67d7, 0x9f6b_c39a],
            &[0xc58c_3f38, 0xf184_6ccb, 0x93d1_8195],
        ];
        for (spec, want) in GF_SPECS.into_iter().zip(golden) {
            let got: Vec<u32> = encode(spec.resolve(), &data, len)
                .iter()
                .map(|p| crate::crc32c_f64(p, KernelConfig::serial()))
                .collect();
            assert_eq!(got, want, "{spec:?}");
        }
    }

    #[test]
    fn rs_m_scales_to_larger_parity_counts() {
        for m in [1usize, 2, 4, 5] {
            let codec = CodecSpec::Rs { m }.resolve();
            let (k, len) = (6, 5);
            let data: Vec<Vec<f64>> = (0..k).map(|p| stripe(p, len)).collect();
            let parity = encode(codec, &data, len);
            let erased: Vec<usize> = (0..m.min(k)).collect();
            let syn: Vec<(usize, Vec<f64>)> = (0..erased.len())
                .map(|r| (r, syndrome(codec, &data, &parity[r], r, &erased, len)))
                .collect();
            let got = codec.solve(&erased, &syn, KernelConfig::serial());
            for (g, &x) in got.iter().zip(&erased) {
                assert!(
                    g.iter()
                        .zip(&data[x])
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "m={m} pos {x}"
                );
            }
        }
    }

    #[test]
    fn resolve_caches_one_instance_per_m() {
        let a = CodecSpec::Rs { m: 3 }.resolve();
        let b = CodecSpec::Rs { m: 3 }.resolve();
        assert!(std::ptr::eq(
            a as *const dyn ErasureCodec as *const u8,
            b as *const dyn ErasureCodec as *const u8
        ));
        assert_eq!(a.name(), "RS(m=3)");
        assert_eq!(CodecSpec::Rs { m: 7 }.name(), "RS(m=7)");
    }

    #[test]
    #[should_panic(expected = "corrects at most 3 erasures")]
    fn rs3_refuses_four_erasures() {
        let codec = CodecSpec::Rs { m: 3 }.resolve();
        codec.solve(
            &[0, 1, 2, 3],
            &[(0, vec![0.0]), (1, vec![0.0]), (2, vec![0.0])],
            KernelConfig::serial(),
        );
    }

    /// `g` has order 255, so without the field bound positions 0 and 255
    /// would share a Q coefficient and a double loss there would reach
    /// `inv(0)`.
    #[test]
    #[should_panic(expected = "exceeds the field")]
    fn dual_refuses_position_255_instead_of_wrapping() {
        let _ = CodecSpec::Dual
            .resolve()
            .contrib(1, 255, &[1.0], KernelConfig::serial());
    }

    #[test]
    fn dual_decodes_every_pair_of_positions_the_field_admits() {
        let codec = &DUAL;
        for x in 0..254usize {
            assert_ne!(codec.coeff(1, x), 0);
            for y in x + 1..254 {
                let mat = codec.submatrix(&[0, 1], &[x, y]);
                assert!(gf256::invert_matrix(&mat).is_some(), "({x},{y})");
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Invertibility of the decode system for arbitrary erased
            /// positions and surviving roles — the Cauchy property the
            /// whole codec rests on.
            #[test]
            fn every_decode_submatrix_is_invertible(
                m in 1usize..9,
                seed in any::<u64>(),
            ) {
                let codec = GfCodec::cauchy(m);
                let k = 12usize;
                // sample e, then e distinct erased positions and e roles
                let mut s = seed;
                let mut next = || {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (s >> 33) as usize
                };
                let e = 1 + next() % m;
                let mut erased: Vec<usize> = Vec::new();
                while erased.len() < e.min(k) {
                    let p = next() % k;
                    if !erased.contains(&p) {
                        erased.push(p);
                    }
                }
                erased.sort_unstable();
                let mut roles: Vec<usize> = Vec::new();
                while roles.len() < erased.len() {
                    let r = next() % m;
                    if !roles.contains(&r) {
                        roles.push(r);
                    }
                }
                let mat = codec.submatrix(&roles, &erased);
                prop_assert!(
                    gf256::invert_matrix(&mat).is_some(),
                    "singular submatrix: m={} roles={:?} erased={:?}", m, roles, erased
                );
            }

            /// All generator coefficients are nonzero (x/y ranges are
            /// disjoint) and distinct roles give distinct rows.
            #[test]
            fn coefficients_are_nonzero_and_rows_distinct(
                m in 2usize..9,
                pos in 0usize..64,
            ) {
                let codec = GfCodec::cauchy(m);
                for role in 0..m {
                    prop_assert_ne!(codec.coeff(role, pos), 0);
                }
                for r1 in 0..m {
                    for r2 in (r1 + 1)..m {
                        prop_assert_ne!(codec.coeff(r1, pos), codec.coeff(r2, pos));
                    }
                }
            }
        }
    }
}
