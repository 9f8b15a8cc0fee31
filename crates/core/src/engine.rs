//! Communication kernels shared by every checkpoint protocol: stripe
//! parity encoding (the paper's `MPI_Reduce`-based checksum calculation,
//! §2.2) and lost-rank reconstruction, generalized over any
//! [`ErasureCodec`].
//!
//! Encoding runs `m` group-reduces per slot — one per parity role — with
//! roots rotating across the group (the stripe-based scheme of Figure 1
//! that avoids a single-node encoding bottleneck). Reconstruction of up
//! to `m` lost ranks runs in two phases: per-slot syndrome allreduces
//! plus a local codec solve rebuild the lost *data*, then one reduce per
//! lost parity role re-encodes the lost ranks' *parity* from the freshly
//! rebuilt data.
//!
//! A rank feeds a reduce only what it has: the contributions of its data
//! stripe in that slot (all roles filled from one cache-blocked read of
//! the stripe), its parity stripe when building a syndrome, and
//! otherwise [`Payload::Empty`] — the reduce's identity, which costs no
//! bytes and no pass.

use skt_encoding::{kernels, ErasureCodec, GroupLayout, KernelConfig, Wire};
use skt_mps::{Comm, Fault, Payload, ReduceOp};

/// Rebuilt `(padded data, parity segment)` of a lost rank.
pub type Rebuilt = (Vec<f64>, Vec<f64>);

fn op_of(wire: Wire) -> ReduceOp {
    match wire {
        Wire::Bits => ReduceOp::Xor,
        Wire::Floats => ReduceOp::Sum,
    }
}

/// What rank `me` feeds into the reduces for parity roles `roles` of
/// slot `s`, in `roles` order: the contributions of its data stripe in
/// that slot (the cancelling ones when `cancel`), or the identity for
/// every role when it holds no data stripe there because it owns one of
/// the slot's parity roles.
fn slot_inputs(
    layout: &GroupLayout,
    codec: &dyn ErasureCodec,
    me: usize,
    s: usize,
    roles: &[usize],
    data: &[f64],
    cancel: bool,
) -> Vec<Payload> {
    let Some(pos) = layout.codeword_pos(me, s) else {
        return roles.iter().map(|_| Payload::Empty).collect();
    };
    let k = layout
        .stripe_of_slot(me, s)
        .expect("contributor has a stripe");
    let stripe = layout.stripe(data, k);
    codec
        .contribs(roles, pos, stripe, cancel, KernelConfig::global())
        .into_iter()
        .map(Payload::F64)
        .collect()
}

/// This rank's freshly encoded parity stripes, one per parity role in
/// role order (each `layout.stripe_len()` long), exactly as the reduces
/// delivered them: [`encode_parity`] without the assembly copy.
pub(crate) fn encode_parity_stripes(
    comm: &Comm<'_>,
    layout: &GroupLayout,
    codec: &dyn ErasureCodec,
    data: &[f64],
    failpoint: Option<&str>,
) -> Result<Vec<Vec<f64>>, Fault> {
    let n = comm.size();
    let m = codec.parity_count();
    assert_eq!(n, layout.group_size(), "comm/layout size mismatch");
    assert_eq!(m, layout.parity_count(), "codec/layout parity mismatch");
    assert_eq!(data.len(), layout.padded_len(), "data must be padded");
    let me = comm.rank();
    let op = op_of(codec.wire());
    let roles: Vec<usize> = (0..m).collect();
    let mut my_parity: Vec<Vec<f64>> = vec![Vec::new(); m];
    for s in 0..n {
        let inputs = slot_inputs(layout, codec, me, s, &roles, data, false);
        for (role, input) in inputs.into_iter().enumerate() {
            let root = layout.parity_owner(s, role);
            if let Some(parity) = comm.reduce(op, root, input)? {
                debug_assert_eq!(me, root);
                debug_assert_eq!(layout.parity_role(me, s), Some(role));
                my_parity[role] = parity.into_f64();
            }
        }
        if let Some(label) = failpoint {
            comm.ctx().failpoint(label)?;
        }
    }
    Ok(my_parity)
}

/// Compute this rank's parity segment (the checksums of the `m` slots
/// whose parity roles it owns) from the group's padded `data` buffers.
///
/// Runs `m` stripe reduces per slot with rotating roots; every rank
/// returns its `layout.parity_len()`-element segment, role `i` at
/// `layout.parity_range(i)`. When `failpoint` is given, the probe fires
/// once per slot between slot reduces, exposing the "failure while
/// calculating a new checksum" window (paper CASE 1).
pub fn encode_parity(
    comm: &Comm<'_>,
    layout: &GroupLayout,
    codec: &dyn ErasureCodec,
    data: &[f64],
    failpoint: Option<&str>,
) -> Result<Vec<f64>, Fault> {
    Ok(encode_parity_stripes(comm, layout, codec, data, failpoint)?.concat())
}

/// Rebuild the `lost` ranks' padded data buffers and parity segments
/// from the survivors' `data` and per-rank `my_parity` segments (their
/// `C` or `D`).
///
/// Survivors pass their live buffers; a lost rank's `data`/`my_parity`
/// contents are ignored (pass zeros of the right length). At most
/// `codec.parity_count()` ranks may be lost. Returns
/// `Some((data, parity))` at each lost rank, `None` elsewhere.
pub fn reconstruct_multi(
    comm: &Comm<'_>,
    layout: &GroupLayout,
    codec: &dyn ErasureCodec,
    lost: &[usize],
    data: &[f64],
    my_parity: &[f64],
) -> Result<Option<Rebuilt>, Fault> {
    let n = comm.size();
    let m = codec.parity_count();
    assert_eq!(n, layout.group_size(), "comm/layout size mismatch");
    assert_eq!(m, layout.parity_count(), "codec/layout parity mismatch");
    let mut lost: Vec<usize> = lost.to_vec();
    lost.sort_unstable();
    lost.dedup();
    assert!(lost.iter().all(|&l| l < n), "lost rank out of range");
    assert!(
        lost.len() <= m,
        "cannot rebuild {} erasures with {m} parity stripes",
        lost.len()
    );
    assert_eq!(data.len(), layout.padded_len(), "data must be padded");
    assert_eq!(
        my_parity.len(),
        layout.parity_len(),
        "parity length mismatch"
    );
    let me = comm.rank();
    let i_am_lost = lost.contains(&me);
    let op = op_of(codec.wire());
    let kcfg = KernelConfig::global();

    let mut rebuilt_data = i_am_lost.then(|| kernels::zeroed(layout.padded_len()));

    // Phase A: per slot, allreduce one syndrome per surviving parity
    // role, then solve locally for the erased data stripes. A syndrome
    // is parity ⊕ cancel(surviving stripes) = the combination of the
    // erased stripes' contributions alone. With ≤ m total losses, each
    // slot always keeps at least as many roles as it lost data stripes.
    for s in 0..n {
        let erased: Vec<usize> = lost
            .iter()
            .filter_map(|&l| layout.codeword_pos(l, s))
            .collect();
        if erased.is_empty() {
            continue;
        }
        // roles whose parity did not die with its owner
        let roles: Vec<usize> = (0..m)
            .filter(|&role| !lost.contains(&layout.parity_owner(s, role)))
            .collect();
        // A lost rank has nothing to add; a survivor adds its cancelling
        // data contributions, or — owning one of the slot's parity
        // roles — that role's parity stripe and nothing to the others.
        let inputs = if i_am_lost {
            roles.iter().map(|_| Payload::Empty).collect()
        } else if let Some(mine) = layout.parity_role(me, s) {
            let mut inputs: Vec<Payload> = roles.iter().map(|_| Payload::Empty).collect();
            if let Some(i) = roles.iter().position(|&role| role == mine) {
                inputs[i] = Payload::F64(my_parity[layout.parity_range(mine)].to_vec());
            }
            inputs
        } else {
            slot_inputs(layout, codec, me, s, &roles, data, true)
        };
        let mut syndromes: Vec<(usize, Vec<f64>)> = Vec::with_capacity(roles.len());
        for (&role, input) in roles.iter().zip(inputs) {
            syndromes.push((role, comm.allreduce(op, input)?.into_f64()));
        }
        if let Some(mine) = rebuilt_data.as_mut() {
            let solved = codec.solve(&erased, &syndromes, kcfg);
            for (pos, stripe) in erased.iter().zip(&solved) {
                // which lost rank sits at codeword position `pos`?
                let l = lost
                    .iter()
                    .copied()
                    .find(|&l| layout.codeword_pos(l, s) == Some(*pos))
                    .expect("erased position maps back to a lost rank");
                if l == me {
                    let k = layout.stripe_of_slot(me, s).expect("lost contributor");
                    mine[layout.stripe_range(k)].copy_from_slice(stripe);
                }
            }
        }
    }

    // Phase B: re-encode each lost rank's parity roles from the (now
    // complete) group data — one reduce per lost parity stripe, rooted
    // at its owner. Lost contributors feed their freshly rebuilt data.
    let mut rebuilt_parity = i_am_lost.then(|| kernels::zeroed(layout.parity_len()));
    let my_data: &[f64] = rebuilt_data.as_deref().unwrap_or(data);
    for &l in &lost {
        for role in 0..m {
            let s = layout.parity_slot(l, role);
            let input = slot_inputs(layout, codec, me, s, &[role], my_data, false)
                .pop()
                .expect("one input per role");
            if let Some(parity) = comm.reduce(op, l, input)? {
                debug_assert_eq!(me, l);
                rebuilt_parity.as_mut().unwrap()[layout.parity_range(role)]
                    .copy_from_slice(&parity.into_f64());
            }
        }
    }
    Ok(rebuilt_data.map(|d| (d, rebuilt_parity.expect("lost rank rebuilt its parity"))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skt_encoding::{Code, CodecSpec};
    use skt_mps::run_local;

    fn rank_data(rank: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((rank * 1000 + i) as f64).sin() * 100.0)
            .collect()
    }

    fn sequential_parity(
        code: Code,
        layout: &GroupLayout,
        slot: usize,
        datasets: &[Vec<f64>],
    ) -> Vec<f64> {
        let mut acc = code.zero(layout.stripe_len());
        for (r, d) in datasets.iter().enumerate() {
            if let Some(k) = layout.stripe_of_slot(r, slot) {
                code.accumulate(&mut acc, layout.stripe(d, k));
            }
        }
        acc
    }

    /// Exactly representable, rank- and index-distinct words: SUM stays
    /// exact in any association, so every codec can be held to bits.
    fn exact_data(rank: usize, len: usize) -> Vec<f64> {
        (0..len).map(|i| (rank * 4096 + i * 3 + 1) as f64).collect()
    }

    #[test]
    fn every_codec_encodes_the_sequential_reference_bit_for_bit() {
        let n = 5;
        for spec in [
            CodecSpec::single(Code::Xor),
            CodecSpec::single(Code::Sum),
            CodecSpec::dual(),
            CodecSpec::rs(1),
            CodecSpec::rs(2),
            CodecSpec::rs(3),
        ] {
            let codec = spec.resolve();
            let m = codec.parity_count();
            let layout = GroupLayout::new_with_parity(n, m, 23);
            let datasets: Vec<Vec<f64>> =
                (0..n).map(|r| exact_data(r, layout.padded_len())).collect();
            let out = run_local(n, |ctx| {
                let data = exact_data(ctx.world_rank(), layout.padded_len());
                encode_parity(&ctx.world(), &layout, codec, &data, None)
            })
            .unwrap();
            // the reference: fold every contributor's contribution in
            // rank order, one accumulator per (slot, role)
            let serial = KernelConfig::serial();
            for (rank, parity) in out.iter().enumerate() {
                assert_eq!(parity.len(), layout.parity_len());
                for role in 0..m {
                    let s = layout.parity_slot(rank, role);
                    let mut acc = kernels::zeroed(layout.stripe_len());
                    for r in layout.contributors(s) {
                        let k = layout.stripe_of_slot(r, s).unwrap();
                        let pos = layout.codeword_pos(r, s).unwrap();
                        let c = codec.contrib(role, pos, layout.stripe(&datasets[r], k), serial);
                        match codec.wire() {
                            Wire::Bits => kernels::xor_accumulate(&mut acc, &c, serial),
                            Wire::Floats => kernels::sum_accumulate(&mut acc, &c, serial),
                        }
                    }
                    let got = &parity[layout.parity_range(role)];
                    assert!(
                        got.iter()
                            .zip(&acc)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{spec:?} rank {rank} role {role}"
                    );
                }
            }
        }
    }

    #[test]
    fn only_data_holders_put_bytes_on_the_wire() {
        use skt_cluster::{Cluster, ClusterConfig, Event, Ranklist, Recorder};
        use std::sync::Arc;
        let (n, m) = (4, 2);
        let codec = CodecSpec::rs(m).resolve();
        let layout = GroupLayout::new_with_parity(n, m, 16); // stripe 8
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(n, 0)));
        let rec = Arc::new(Recorder::new());
        cluster.events().subscribe(Arc::clone(&rec) as _);
        skt_mps::run_on_cluster(cluster, &Ranklist::round_robin(n, n), |ctx| {
            let data = rank_data(ctx.world_rank(), layout.padded_len());
            encode_parity(&ctx.world(), &layout, codec, &data, None)
        })
        .unwrap();
        // one reduce event per rank per (slot, role); of the n ranks the
        // n - m data holders contribute a stripe, the m parity owners
        // the identity
        let stripe_bytes = (layout.stripe_len() * 8) as u64;
        let reduces = |bytes: u64| {
            rec.count(
                |e| matches!(e, Event::Collective { op: "reduce", bytes: b, .. } if *b == bytes),
            )
        };
        assert_eq!(reduces(stripe_bytes), n * m * (n - m));
        assert_eq!(reduces(0), n * m * m);
        assert_eq!(
            rec.count(|e| matches!(e, Event::Collective { .. })),
            n * m * n
        );
    }

    #[test]
    fn reconstruct_recovers_each_possible_lost_rank() {
        let n = 4;
        let codec = CodecSpec::default().resolve();
        let layout = GroupLayout::new(n, 10); // padded 12, stripe 4
        for lost in 0..n {
            let out = run_local(n, move |ctx| {
                let w = ctx.world();
                let me = ctx.world_rank();
                let data = rank_data(me, layout.padded_len());
                let parity = encode_parity(&w, &layout, codec, &data, None)?;
                // lost rank forgets everything
                let (d, p) = if me == lost {
                    (
                        vec![0.0; layout.padded_len()],
                        vec![0.0; layout.parity_len()],
                    )
                } else {
                    (data, parity)
                };
                reconstruct_multi(&w, &layout, codec, &[lost], &d, &p)
            })
            .unwrap();
            for (r, res) in out.iter().enumerate() {
                if r == lost {
                    let (d, p) = res.as_ref().unwrap();
                    let expect = rank_data(lost, layout.padded_len());
                    for (a, b) in d.iter().zip(&expect) {
                        assert_eq!(a.to_bits(), b.to_bits(), "lost {lost}: data mismatch");
                    }
                    // the rebuilt parity must equal a fresh sequential parity
                    let datasets: Vec<Vec<f64>> =
                        (0..n).map(|r| rank_data(r, layout.padded_len())).collect();
                    let expect_p = sequential_parity(Code::Xor, &layout, lost, &datasets);
                    for (a, b) in p.iter().zip(&expect_p) {
                        assert_eq!(a.to_bits(), b.to_bits(), "lost {lost}: parity mismatch");
                    }
                } else {
                    assert!(res.is_none());
                }
            }
        }
    }

    #[test]
    fn reconstruct_with_sum_code_is_close() {
        let n = 3;
        let codec = CodecSpec::single(Code::Sum).resolve();
        let layout = GroupLayout::new(n, 8); // stripe 4
        let lost = 1;
        let out = run_local(n, move |ctx| {
            let w = ctx.world();
            let me = ctx.world_rank();
            let data = rank_data(me, layout.padded_len());
            let parity = encode_parity(&w, &layout, codec, &data, None)?;
            let (d, p) = if me == lost {
                (
                    vec![0.0; layout.padded_len()],
                    vec![0.0; layout.parity_len()],
                )
            } else {
                (data, parity)
            };
            reconstruct_multi(&w, &layout, codec, &[lost], &d, &p)
        })
        .unwrap();
        let (d, _) = out[lost].as_ref().unwrap();
        let expect = rank_data(lost, layout.padded_len());
        for (a, b) in d.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn group_of_two_mirrors_the_peer() {
        // N=2: one stripe, parity = the peer's whole buffer.
        let codec = CodecSpec::default().resolve();
        let layout = GroupLayout::new(2, 6);
        assert_eq!(layout.stripe_len(), 6);
        let out = run_local(2, |ctx| {
            let w = ctx.world();
            let data = rank_data(ctx.world_rank(), 6);
            encode_parity(&w, &layout, codec, &data, None)
        })
        .unwrap();
        assert_eq!(out[0], rank_data(1, 6), "rank 0 stores rank 1's mirror");
        assert_eq!(out[1], rank_data(0, 6), "rank 1 stores rank 0's mirror");
    }

    #[test]
    fn encode_failpoint_label_fires() {
        use skt_cluster::{Cluster, ClusterConfig, FailurePlan, Ranklist};
        use std::sync::Arc;
        let n = 4;
        let codec = CodecSpec::default().resolve();
        let layout = GroupLayout::new(n, 9);
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(n, 0)));
        // node 2 dies at its second encode probe
        cluster.arm_failure(FailurePlan::new("encode", 2, 2));
        let rl = Ranklist::round_robin(n, n);
        let res = skt_mps::run_on_cluster(cluster.clone(), &rl, |ctx| {
            let w = ctx.world();
            let data = rank_data(ctx.world_rank(), layout.padded_len());
            encode_parity(&w, &layout, codec, &data, Some("encode"))
        });
        assert!(res.is_err(), "job must abort");
        assert_eq!(cluster.dead_nodes(), vec![2]);
    }

    #[test]
    fn dual_codec_recovers_every_pair_of_lost_ranks() {
        let n = 5;
        let codec = CodecSpec::dual().resolve();
        let layout = GroupLayout::new_with_parity(n, 2, 12); // stripe 4
        assert_eq!(layout.parity_len(), 8);
        for a in 0..n {
            for b in a + 1..n {
                let lost = [a, b];
                let out = run_local(n, move |ctx| {
                    let w = ctx.world();
                    let me = ctx.world_rank();
                    let data = rank_data(me, layout.padded_len());
                    let parity = encode_parity(&w, &layout, codec, &data, None)?;
                    let (d, p) = if lost.contains(&me) {
                        (
                            vec![0.0; layout.padded_len()],
                            vec![0.0; layout.parity_len()],
                        )
                    } else {
                        (data, parity)
                    };
                    let rebuilt = reconstruct_multi(&w, &layout, codec, &lost, &d, &p)?;
                    // survivors report their parity so the test can check
                    // the rebuilt parity against the live one
                    Ok((rebuilt, p))
                })
                .unwrap();
                // every lost rank gets its exact data back
                for &l in &lost {
                    let (d, _) = out[l].0.as_ref().unwrap();
                    let expect = rank_data(l, layout.padded_len());
                    assert!(
                        d.iter()
                            .zip(&expect)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "pair ({a},{b}): lost {l} data"
                    );
                }
                // and a parity segment identical to a fresh encode
                let fresh = run_local(n, move |ctx| {
                    let w = ctx.world();
                    let data = rank_data(ctx.world_rank(), layout.padded_len());
                    encode_parity(&w, &layout, codec, &data, None)
                })
                .unwrap();
                for &l in &lost {
                    let (_, p) = out[l].0.as_ref().unwrap();
                    assert!(
                        p.iter()
                            .zip(&fresh[l])
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "pair ({a},{b}): lost {l} parity"
                    );
                }
                // survivors return None
                for r in 0..n {
                    if !lost.contains(&r) {
                        assert!(out[r].0.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn dual_codec_single_loss_also_recovers() {
        let n = 4;
        let codec = CodecSpec::dual().resolve();
        let layout = GroupLayout::new_with_parity(n, 2, 10); // stripe 5
        for lost in 0..n {
            let out = run_local(n, move |ctx| {
                let w = ctx.world();
                let me = ctx.world_rank();
                let data = rank_data(me, layout.padded_len());
                let parity = encode_parity(&w, &layout, codec, &data, None)?;
                let (d, p) = if me == lost {
                    (
                        vec![0.0; layout.padded_len()],
                        vec![0.0; layout.parity_len()],
                    )
                } else {
                    (data, parity)
                };
                reconstruct_multi(&w, &layout, codec, &[lost], &d, &p)
            })
            .unwrap();
            let (d, _) = out[lost].as_ref().unwrap();
            let expect = rank_data(lost, layout.padded_len());
            assert!(d
                .iter()
                .zip(&expect)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}
