//! Exhaustive erasure-pattern sweep for the GF(2^8) codec layer: for
//! every group size `n ∈ {4, 6, 8}` and every XOR-wire codec — the
//! paper's single XOR parity, P+Q (`Dual`) and Cauchy `Rs { m }` for
//! `m ∈ {1, 2, 3}` — **every** `C(n, m')`-choose subset of lost group
//! members (for every `m' ≤ m`) is rebuilt bit-exactly through the
//! distributed encode/reconstruct engine.
//!
//! Losing a *member* erases both its data stripes and the parity roles
//! it owned (the layout spreads `m` parity roles round-robin across the
//! group), so the subsets naturally mix data and parity erasures — the
//! cases where fewer than `m` roles survive a slot and the Cauchy
//! submatrix solve has to work from an arbitrary role subset.
//!
//! Every cell runs on a deterministic [`SimRuntime`] virtual-time
//! cluster, and runs twice under different scheduler seeds: the rebuilt
//! bits must be identical (seed-invariance) — reconstruction is algebra,
//! not an interleaving accident.

use self_checkpoint::cluster::{Cluster, ClusterConfig, Ranklist, SimRuntime};
use self_checkpoint::core::{encode_parity, reconstruct_multi};
use self_checkpoint::encoding::{Code, CodecSpec, GroupLayout};
use self_checkpoint::mps::run_on_cluster;
use std::sync::Arc;

/// Unpadded per-rank payload length: deliberately not a multiple of any
/// stripe count in the sweep, so layout padding is always exercised.
const A1: usize = 21;

/// Words no arithmetic may touch on the way: a NaN with a payload, both
/// infinities, negative zero and a subnormal. Each rank holds them in
/// its first words, rotated by rank, so a rebuild must carry every one
/// bit for bit.
const SPECIAL: [f64; 5] = [
    f64::from_bits(0x7FF8_0000_0000_0001),
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    f64::MIN_POSITIVE / 2.0,
];

fn rank_data(rank: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            if i < SPECIAL.len() {
                return SPECIAL[(i + rank) % SPECIAL.len()];
            }
            let x = (rank as u64 * 7919 + i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0xD1B5_4A32_D192_ED03);
            f64::from_bits(x >> 2) // finite values, full mantissa entropy
        })
        .collect()
}

/// All strictly-increasing `k`-subsets of `0..n`.
fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    let mut stack = vec![(Vec::new(), 0usize)];
    while let Some((prefix, start)) = stack.pop() {
        for first in start..n {
            let mut s = prefix.clone();
            s.push(first);
            if s.len() == k {
                out.push(s);
            } else {
                stack.push((s, first + 1));
            }
        }
    }
    out.sort();
    out
}

/// Run one `(n, spec, lost, seed)` cell: encode, zero the lost members,
/// reconstruct, assert bit-exact data *and* parity, and return a
/// fingerprint of the rebuilt bits for the seed-invariance check.
fn run_cell(n: usize, spec: CodecSpec, lost: &[usize], seed: u64) -> u64 {
    let codec = spec.resolve();
    let m = codec.parity_count();
    let layout = GroupLayout::new_with_parity(n, m, A1);
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(n, 0),
        SimRuntime::new(seed),
    ));
    let rl = Ranklist::round_robin(n, n);
    let lost_set = lost.to_vec();
    let outs = run_on_cluster(cluster, &rl, move |ctx| {
        let w = ctx.world();
        let me = ctx.world_rank();
        let data = rank_data(me, layout.padded_len());
        let parity = encode_parity(&w, &layout, codec, &data, None)?;
        let (d, p) = if lost_set.contains(&me) {
            (
                vec![0.0; layout.padded_len()],
                vec![0.0; layout.parity_len()],
            )
        } else {
            (data, parity.clone())
        };
        let rebuilt = reconstruct_multi(&w, &layout, codec, &lost_set, &d, &p)?;
        // the pre-zeroing parity rides along so the test can check the
        // rebuilt parity segments against the fresh encode
        Ok((rebuilt, parity))
    })
    .unwrap();

    let tag = format!("n={n} {spec:?} lost={lost:?} seed={seed}");
    let mut fingerprint = 0u64;
    for (rank, (rebuilt, true_parity)) in outs.iter().enumerate() {
        if lost.contains(&rank) {
            let (d, p) = rebuilt.as_ref().expect("lost ranks return a rebuild");
            let want = rank_data(rank, layout.padded_len());
            assert!(
                d.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{tag}: rank {rank} data not bit-exact"
            );
            assert!(
                p.iter()
                    .zip(true_parity)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{tag}: rank {rank} parity not bit-exact"
            );
            for v in d.iter().chain(p.iter()) {
                fingerprint = fingerprint.rotate_left(7) ^ v.to_bits();
            }
        } else {
            assert!(rebuilt.is_none(), "{tag}: survivor {rank} must return None");
        }
    }
    fingerprint
}

/// The full sweep for one group size: every codec, every loss
/// multiplicity up to its `m`, every member subset, two scheduler seeds,
/// identical bits.
fn sweep(n: usize) {
    for spec in [
        CodecSpec::Single(Code::Xor),
        CodecSpec::Dual,
        CodecSpec::rs(1),
        CodecSpec::rs(2),
        CodecSpec::rs(3),
    ] {
        for e in 1..=spec.parity_count() {
            for lost in subsets(n, e) {
                let fp0 = run_cell(n, spec, &lost, 0);
                let fp1 = run_cell(n, spec, &lost, 1);
                assert_eq!(
                    fp0, fp1,
                    "n={n} {spec:?} lost={lost:?}: rebuilt bits differ across scheduler seeds"
                );
            }
        }
    }
}

#[test]
fn every_erasure_pattern_rebuilds_bit_exact_n4() {
    sweep(4);
}

#[test]
fn every_erasure_pattern_rebuilds_bit_exact_n6() {
    sweep(6);
}

#[test]
fn every_erasure_pattern_rebuilds_bit_exact_n8() {
    sweep(8);
}
