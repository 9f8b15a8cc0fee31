//! SIMD/scalar kernel-equivalence properties: every backend of the
//! GF(2^8) multiply / multiply-accumulate and CRC-32C kernels must produce
//! bytes identical to the reference (`gf256`'s log/exp walk, the CRC
//! table walk) for arbitrary lengths, values and
//! (mis)alignments — including the sub-vector tails the `vpshufb` and
//! 8-byte-stride paths hand to their byte-wise remainders.
//!
//! Buffers are generated from sampled `(len, offset, seed)` primitives
//! (splitmix64 fill), and misalignment is exercised by slicing at a
//! sampled byte offset so the vector loops start off any 32-byte
//! boundary. The same properties drive the f64-level kernels through
//! forced [`SimdMode`]s, covering the dispatch plumbing end to end.

use proptest::prelude::*;
use skt_encoding::kernels::{self, KernelConfig};
use skt_encoding::simd::{
    crc32c_update, gf_mac_bytes, gf_mul_bytes, CrcBackend, GfBackend, SimdMode,
};
use skt_encoding::{
    copy_with_stripe_crcs, crc32c, crc32c_f64, gf256, stripe_crcs, Code, CodecSpec, ErasureCodec,
    Wire,
};

fn bytes(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let mut z = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z >> 56) as u8
        })
        .collect()
}

fn floats(len: usize, seed: u64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let z = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0xD134_2543_DE82_EF95);
            f64::from_bits(z >> 2) // finite
        })
        .collect()
}

/// A sampled coefficient: the clear / copy shortcuts (0, 1) a quarter of
/// the time each, an arbitrary scalar otherwise.
fn coeff(kind: u8, raw: u8) -> u8 {
    if kind < 2 {
        kind
    } else {
        raw
    }
}

proptest! {
    /// `dst[i] := c·src[i]`: every available backend equals the log/exp
    /// reference at any length, scalar and independently mis-aligned
    /// destination and source — including c = 0 / 1 (the clear / copy
    /// fast paths), lengths below one vector, and a dirty destination
    /// whose bytes before the offset stay untouched.
    #[test]
    fn gf_mul_backends_match_reference(
        len in 0usize..600,
        d_off in 0usize..33,
        s_off in 0usize..33,
        c_kind in 0u8..4,
        c_raw in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let c = coeff(c_kind, c_raw);
        let dst0 = bytes(len + d_off, seed);
        let src = bytes(len + s_off, seed ^ 0xABCD);
        let mut want = src[s_off..].to_vec();
        gf256::scale_slice(&mut want, c);
        for backend in GfBackend::available() {
            let mut got = dst0.clone();
            gf_mul_bytes(&mut got[d_off..], &src[s_off..], c, backend);
            prop_assert_eq!(
                &got[d_off..], want.as_slice(),
                "mul: len={} d_off={} s_off={} c={} backend={:?}", len, d_off, s_off, c, backend
            );
            prop_assert_eq!(&got[..d_off], &dst0[..d_off], "prefix untouched");
        }
    }

    /// `acc[i] ^= c·x[i]`: every available backend equals the log/exp
    /// reference, with independently mis-aligned accumulator and input.
    #[test]
    fn gf_mac_backends_match_reference(
        len in 0usize..600,
        a_off in 0usize..33,
        x_off in 0usize..33,
        c_kind in 0u8..4,
        c_raw in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let c = coeff(c_kind, c_raw);
        let acc0 = bytes(len + a_off, seed);
        let x = bytes(len + x_off, seed ^ 0xABCD);
        let mut want = acc0[a_off..].to_vec();
        gf256::mac_slice(&mut want, &x[x_off..], c);
        for backend in GfBackend::available() {
            let mut got = acc0.clone();
            gf_mac_bytes(&mut got[a_off..], &x[x_off..], c, backend);
            prop_assert_eq!(
                &got[a_off..], want.as_slice(),
                "mac: len={} a_off={} x_off={} c={} backend={:?}", len, a_off, x_off, c, backend
            );
            prop_assert_eq!(&got[..a_off], &acc0[..a_off], "prefix untouched");
        }
    }

    /// The store rule is the only difference between the two entry
    /// points: on every available backend `mac(acc, x, c)` equals `mul`
    /// into a scratch buffer followed by a byte XOR into `acc`.
    #[test]
    fn gf_mac_is_mul_then_xor_on_every_backend(
        len in 0usize..600,
        a_off in 0usize..33,
        x_off in 0usize..33,
        c_kind in 0u8..4,
        c_raw in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let c = coeff(c_kind, c_raw);
        let acc0 = bytes(len + a_off, seed);
        let x = bytes(len + x_off, seed ^ 0xABCD);
        for backend in GfBackend::available() {
            let mut scratch = bytes(len, seed ^ 0x1234);
            gf_mul_bytes(&mut scratch, &x[x_off..], c, backend);
            let want: Vec<u8> = acc0[a_off..].iter().zip(&scratch).map(|(a, p)| a ^ p).collect();
            let mut got = acc0.clone();
            gf_mac_bytes(&mut got[a_off..], &x[x_off..], c, backend);
            prop_assert_eq!(
                &got[a_off..], want.as_slice(),
                "len={} a_off={} x_off={} c={} backend={:?}", len, a_off, x_off, c, backend
            );
        }
    }

    /// The split-table identity the vector kernels are built on:
    /// `c·b = LO[b & 0xF] ⊕ HI[b >> 4]` for every (c, b) pair sampled.
    #[test]
    fn nibble_decomposition_matches_field_multiply(c in any::<u8>(), b in any::<u8>()) {
        let (lo, hi) = skt_encoding::simd::nibble_tables(c);
        prop_assert_eq!(lo[(b & 0x0F) as usize] ^ hi[(b >> 4) as usize], gf256::mul(c, b));
    }

    /// CRC-32C: every available backend advances an arbitrary in-flight
    /// state over arbitrary bytes identically to the table walk — half
    /// the cases below one vector-tail's worth of bytes, half long enough
    /// to cross the hardware walk's 3·256 B and 3·8 KiB blocks.
    #[test]
    fn crc_backends_match_table(
        len in 0usize..65_000,
        short in any::<bool>(),
        offset in 0usize..33,
        state in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let len = if short { len % 600 } else { len };
        let d = bytes(len + offset, seed);
        let want = crc32c_update(state, &d[offset..], CrcBackend::Table);
        for backend in CrcBackend::available() {
            prop_assert_eq!(
                crc32c_update(state, &d[offset..], backend), want,
                "crc: len={} offset={} backend={:?}", len, offset, backend
            );
        }
    }

    /// CRC state composes over an arbitrary split point on every
    /// backend: update(update(s, a), b) == update(s, a ‖ b). This is
    /// what the <8-byte and <16-byte tails rely on, and what lets a
    /// caller stop anywhere inside one of the hardware walk's blocks.
    #[test]
    fn crc_update_composes_across_splits(
        len in 0usize..65_000,
        short in any::<bool>(),
        split_frac in 0usize..101,
        seed in any::<u64>(),
    ) {
        let len = if short { len % 400 } else { len };
        let d = bytes(len, seed);
        let split = len * split_frac / 100;
        for backend in CrcBackend::available() {
            let whole = crc32c_update(!0, &d, backend);
            let stitched = crc32c_update(crc32c_update(!0, &d[..split], backend), &d[split..], backend);
            prop_assert_eq!(whole, stitched, "split={} backend={:?}", split, backend);
        }
    }

    /// The f64-level GF kernels through the `KernelConfig` dispatch:
    /// the forced portable bodies and auto produce identical bits for
    /// arbitrary lengths, scalars and thread/chunk policies.
    #[test]
    fn f64_gf_kernels_are_mode_invariant(
        len in 0usize..300,
        c in any::<u8>(),
        threads in 1usize..5,
        chunk in 1usize..80,
        seed in any::<u64>(),
    ) {
        let base = floats(len, seed);
        let x = floats(len, seed ^ 0x5555);
        let reference = KernelConfig::serial().with_simd(SimdMode::Portable);
        let mut want_scale = vec![f64::NAN; len];
        kernels::gf_scale_into(&mut [&mut want_scale], &base, &[c], reference);
        let mut want_mac = base.clone();
        kernels::gf_mac(&mut want_mac, &x, c, reference);
        for mode in [SimdMode::Auto, SimdMode::Portable] {
            let cfg = KernelConfig::new(threads, chunk).with_simd(mode);
            let mut got = x.clone();
            kernels::gf_scale_into(&mut [&mut got], &base, &[c], cfg);
            prop_assert!(
                got.iter().zip(&want_scale).all(|(a, b)| a.to_bits() == b.to_bits()),
                "gf_scale_into: len={} c={} cfg={:?}", len, c, cfg
            );
            let mut got = base.clone();
            kernels::gf_mac(&mut got, &x, c, cfg);
            prop_assert!(
                got.iter().zip(&want_mac).all(|(a, b)| a.to_bits() == b.to_bits()),
                "gf_mac: len={} c={} cfg={:?}", len, c, cfg
            );
        }
    }

    /// The f64-level CRC through the `KernelConfig` dispatch: identical
    /// across modes and thread/chunk policies (combine-stitched).
    #[test]
    fn f64_crc_is_mode_invariant(
        len in 0usize..300,
        threads in 1usize..5,
        chunk in 1usize..80,
        seed in any::<u64>(),
    ) {
        let d = floats(len, seed);
        let want = crc32c_f64(&d, KernelConfig::serial().with_simd(SimdMode::Portable));
        for mode in [SimdMode::Auto, SimdMode::Portable] {
            let cfg = KernelConfig::new(threads, chunk).with_simd(mode);
            prop_assert_eq!(crc32c_f64(&d, cfg), want, "len={} cfg={:?}", len, cfg);
        }
    }
}

/// One 3·8 KiB block of the hardware CRC walk (three interleaved
/// `crc32` chains over consecutive thirds), and one of its 3·256 B blocks.
const LONG: usize = 3 * 8192;
const SHORT: usize = 3 * 256;

/// Every length at which the hardware walk changes shape — one byte
/// either side of one and two blocks of each size, a long block followed
/// by a short one, and all three regimes plus a byte tail at once — at
/// every start alignment and from a zero, a fresh and a mid-stream
/// state, against the table walk on every available backend. From the
/// fresh state the process-wide entry point must agree too: that is the
/// backend `SKT_KERNEL_SIMD` selects, so CI's two dispatch runs cover
/// both ends of it.
#[test]
fn crc_backends_match_table_at_every_block_threshold() {
    let lens = [
        0,
        7,
        8,
        255,
        SHORT - 1,
        SHORT,
        SHORT + 1,
        2 * SHORT - 1,
        2 * SHORT,
        LONG - 1,
        LONG,
        LONG + 1,
        LONG + SHORT,
        2 * LONG,
        2 * LONG + 2 * SHORT + 77,
    ];
    let d = bytes(lens[lens.len() - 1] + 8, 21);
    for len in lens {
        for offset in 0..9 {
            let d = &d[offset..offset + len];
            for state in [0, !0, 0x1357_9BDF] {
                let want = crc32c_update(state, d, CrcBackend::Table);
                for backend in CrcBackend::available() {
                    assert_eq!(
                        crc32c_update(state, d, backend),
                        want,
                        "len={len} offset={offset} state={state:#x} {backend:?}"
                    );
                }
                if state == !0 {
                    assert_eq!(crc32c(d), !want, "len={len} offset={offset}");
                }
            }
        }
    }
}

/// A caller may stop a walk anywhere: a first part that ends inside a
/// long block (so the second resumes from a mid-block state and sees
/// different block boundaries than the whole) composes to the CRC of the
/// whole on every backend.
#[test]
fn crc_split_inside_a_long_block_composes() {
    let d = bytes(2 * LONG + SHORT + 5, 22);
    for split in [1, 8191, 8192 + 3, LONG - 1, LONG + 8192 + 9, 2 * LONG + 1] {
        for backend in CrcBackend::available() {
            let whole = crc32c_update(!0, &d, backend);
            let first = crc32c_update(!0, &d[..split], backend);
            assert_eq!(
                crc32c_update(first, &d[split..], backend),
                whole,
                "split={split} {backend:?}"
            );
        }
    }
}

/// The stripe CRC table is on-disk layout: a CRC-32C is a fixed function
/// of the bytes, whatever walk computes it. One long buffer (integer
/// fill, so no libm in the way) pinned to the value every release so far
/// has stored.
#[test]
fn long_buffer_crc_matches_the_golden_value() {
    const GOLDEN: u32 = 0xFEEE_980F;
    let d = bytes(3 * LONG + SHORT + 13, 23);
    assert!(d.len() >= 64 << 10);
    for backend in CrcBackend::available() {
        assert_eq!(!crc32c_update(!0, &d, backend), GOLDEN, "{backend:?}");
    }
    assert_eq!(crc32c(&d), GOLDEN);
}

/// Worker budgets the one-pass kernels are swept over (the answers may
/// not depend on how many threads shared the blocks).
const BUDGETS: [usize; 4] = [1, 2, 3, 8];
/// 0 / 1 are the clear / copy fast paths, 0x53 and 0xff generic scalars.
const COEFFS: [u8; 5] = [0, 1, 2, 0x53, 0xff];

/// `dst := c·src` out of place equals a copy followed by the reference
/// in-place scale (`gf256::scale_slice`) on every available backend, at
/// byte lengths that are not multiples of 16 and over a dirty destination.
#[test]
fn gf_mul_out_of_place_matches_copy_then_scale_on_every_backend() {
    for len in [0usize, 1, 15, 16, 17, 31, 33, 100, 1000, 1001] {
        let src = bytes(len, 7);
        for c in COEFFS {
            let mut want = src.to_vec();
            gf256::scale_slice(&mut want, c);
            for backend in GfBackend::available() {
                let mut got = bytes(len, 8);
                gf_mul_bytes(&mut got, &src, c, backend);
                assert_eq!(got, want, "len={len} c={c} {backend:?}");
            }
        }
    }
}

/// The multi-role contribution primitive equals one single-coefficient
/// call per role, and the codec's `contribs_into` over stale buffers its
/// per-role `contribs`, for
/// every dispatch mode, worker budget and a stripe that ends in a short
/// block.
#[test]
fn multi_role_contributions_match_the_per_role_walk() {
    let reference = KernelConfig::serial().with_simd(SimdMode::Portable);
    for len in [0usize, 1, 13, 64, 67, 200] {
        let stripe = floats(len, 11);
        for mode in [SimdMode::Auto, SimdMode::Portable] {
            for threads in BUDGETS {
                let cfg = KernelConfig::new(threads, 16).with_simd(mode);
                let mut got: Vec<Vec<f64>> = COEFFS.iter().map(|_| vec![f64::NAN; len]).collect();
                let mut dsts: Vec<&mut [f64]> = got.iter_mut().map(Vec::as_mut_slice).collect();
                kernels::gf_scale_into(&mut dsts, &stripe, &COEFFS, cfg);
                for (out, c) in got.iter().zip(COEFFS) {
                    let mut want = vec![0.0; len];
                    kernels::gf_scale_into(&mut [&mut want], &stripe, &[c], reference);
                    assert!(
                        out.iter()
                            .zip(&want)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                            && out.len() == len,
                        "len={len} c={c} cfg={cfg:?}"
                    );
                }
                for spec in [
                    CodecSpec::Single(Code::Xor),
                    CodecSpec::Single(Code::Sum),
                    CodecSpec::Dual,
                    CodecSpec::Rs { m: 3 },
                ] {
                    let codec: &dyn ErasureCodec = spec.resolve();
                    let roles: Vec<usize> = (0..codec.parity_count()).rev().collect();
                    for cancel in [false, true] {
                        // over stale buffers: every element is overwritten
                        let mut all: Vec<Vec<f64>> =
                            roles.iter().map(|_| vec![f64::NAN; len]).collect();
                        let mut outs: Vec<&mut [f64]> =
                            all.iter_mut().map(Vec::as_mut_slice).collect();
                        codec.contribs_into(&roles, 2, &stripe, cancel, &mut outs, cfg);
                        for (out, &role) in all.iter().zip(&roles) {
                            let want = codec
                                .contribs(&[role], 2, &stripe, cancel, reference)
                                .remove(0);
                            assert!(
                                out.len() == want.len()
                                    && out
                                        .iter()
                                        .zip(&want)
                                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                                "{spec:?} role={role} cancel={cancel} len={len} cfg={cfg:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The in-place multi-role fold equals materialising the contributions
/// and combining them the way the wire does — `gf_mac_multi` against one
/// `gf_mac` per accumulator, the codec's `accumulate` against `contribs`
/// followed by `xor_accumulate` / `sum_accumulate` — for every dispatch
/// mode, worker budget and a stripe that ends in a short block, over
/// dirty accumulators.
#[test]
fn multi_role_accumulate_matches_contribs_then_combine() {
    let reference = KernelConfig::serial().with_simd(SimdMode::Portable);
    for len in [0usize, 1, 13, 64, 67, 200] {
        let stripe = floats(len, 11);
        let dirty = |i: usize| floats(len, 100 + i as u64);
        for mode in [SimdMode::Auto, SimdMode::Portable] {
            for threads in BUDGETS {
                let cfg = KernelConfig::new(threads, 16).with_simd(mode);
                let mut got: Vec<Vec<f64>> = (0..COEFFS.len()).map(dirty).collect();
                let mut accs: Vec<&mut [f64]> = got.iter_mut().map(Vec::as_mut_slice).collect();
                kernels::gf_mac_multi(&mut accs, &stripe, &COEFFS, cfg);
                for (i, (out, c)) in got.iter().zip(COEFFS).enumerate() {
                    let mut want = dirty(i);
                    kernels::gf_mac(&mut want, &stripe, c, reference);
                    assert!(
                        out.iter()
                            .zip(&want)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "len={len} c={c} cfg={cfg:?}"
                    );
                }
                for spec in [
                    CodecSpec::Single(Code::Xor),
                    CodecSpec::Single(Code::Sum),
                    CodecSpec::Dual,
                    CodecSpec::Rs { m: 3 },
                ] {
                    let codec: &dyn ErasureCodec = spec.resolve();
                    let roles: Vec<usize> = (0..codec.parity_count()).rev().collect();
                    for cancel in [false, true] {
                        let mut got: Vec<Vec<f64>> = roles.iter().map(|&r| dirty(r)).collect();
                        let mut accs: Vec<&mut [f64]> =
                            got.iter_mut().map(Vec::as_mut_slice).collect();
                        codec.accumulate(&roles, 2, &stripe, cancel, &mut accs, cfg);
                        let contribs = codec.contribs(&roles, 2, &stripe, cancel, reference);
                        for ((out, c), &role) in got.iter().zip(&contribs).zip(&roles) {
                            let mut want = dirty(role);
                            match codec.wire() {
                                Wire::Bits => kernels::xor_accumulate(&mut want, c, reference),
                                Wire::Floats => kernels::sum_accumulate(&mut want, c, reference),
                            }
                            assert!(
                                out.iter()
                                    .zip(&want)
                                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                                "{spec:?} role={role} cancel={cancel} len={len} cfg={cfg:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The fused flush kernel equals `copy` + `stripe_crcs` of the
/// destination — same bytes, same witness words — for every dispatch
/// mode and worker budget, including a short tail stripe, stripes
/// shorter and longer than one cache block, and a dirty destination.
#[test]
fn fused_copy_and_stripe_crcs_match_copy_then_crc() {
    let reference = KernelConfig::serial().with_simd(SimdMode::Portable);
    for (len, stripe_len) in [
        (0usize, 4usize),
        (1, 4),
        (10, 4),
        (64, 16),
        (67, 16),
        (200, 67),
        (200, 200),
        (200, 300),
    ] {
        let src = floats(len, 13);
        let want_crcs = stripe_crcs(&src, stripe_len, reference);
        for mode in [SimdMode::Auto, SimdMode::Portable] {
            for threads in BUDGETS {
                for chunk in [1usize, 5, 16, 1 << 16] {
                    let cfg = KernelConfig::new(threads, chunk).with_simd(mode);
                    let mut dst = floats(len, 14);
                    let crcs = copy_with_stripe_crcs(&mut dst, &src, stripe_len, cfg);
                    assert!(
                        dst.iter()
                            .zip(&src)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "copy: len={len} stripe={stripe_len} cfg={cfg:?}"
                    );
                    assert_eq!(crcs, want_crcs, "len={len} stripe={stripe_len} cfg={cfg:?}");
                }
            }
        }
    }
}
