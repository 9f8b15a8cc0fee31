//! Communication kernels shared by every checkpoint protocol: stripe
//! parity encoding (the paper's checksum calculation, §2.2) and
//! lost-rank reconstruction, generalized over any [`ErasureCodec`].
//!
//! The stripe encoding of Figure 1 *is* a reduce-scatter — every rank
//! owns one parity role of `m` slots and holds data in the other
//! `n − m` — and runs as one: a single [`Comm::reduce_scatter`] ring
//! per encode, every rank folding one data stripe per step into the
//! slot's `m` in-flight accumulators. The first contributor of a slot
//! produces them from one cache-blocked read of its stripe
//! ([`ErasureCodec::contribs`]); every later one multiply-accumulates
//! its stripe straight into the buffers it was handed
//! ([`ErasureCodec::accumulate`]), so no contribution is materialised
//! after step 0. [`Payload::Empty`] is the identity throughout: an
//! accumulator nobody folds into costs no bytes and no pass.
//!
//! Reconstruction of up to `m` lost ranks is two such rings. Phase A
//! folds the survivors' cancelling contributions into exactly as many
//! syndromes per slot as the slot lost data stripes; each lands at the
//! surviving owner of its parity role, which adds that parity stripe
//! and sends the finished syndrome to the lost ranks holding data in
//! the slot — nobody else sees it — where a local codec solve rebuilds
//! the lost *data*. Phase B re-encodes the lost ranks' *parity* from
//! the now complete group data, folding only into the accumulators
//! that end at a lost rank.
//!
//! Every stripe buffer the engine starts — a ring's step-0
//! accumulators ([`ErasureCodec::contribs_into`]), a syndrome's copy (for
//! a second lost holder, or of the owner's parity stripe when no survivor
//! folded into it) and a lost rank's solve output
//! ([`ErasureCodec::solve_at_into`]) — is a [`BufferPool`] buffer,
//! overwritten whole before it is read. Payloads move through the
//! channels, so a buffer goes back to the pool where it ends up:
//! delivered parity once the protocol has committed and flushed it, or
//! `verify_integrity` has compared it; a lost rank's rebuilt stripes and
//! the syndromes its solves consumed once `fill_stripes` has stored them.
//! That is past the rebuild's closing agreement, so every rank's takes
//! precede every give and the loan peak does not depend on the schedule.
//! A buffer dropped on a fault path is simply freed.

use skt_cluster::BufferPool;
use skt_encoding::{kernels, ErasureCodec, GroupLayout, KernelConfig, Wire};
use skt_mps::{Comm, Fault, Payload};

/// Rebuilt `(padded data, parity segment)` of a lost rank.
pub type Rebuilt = (Vec<f64>, Vec<f64>);

/// A lost rank's rebuild in pool buffers `layout.stripe_len()` long: its
/// `n − m` data stripes in stripe order and its `m` parity stripes in
/// role order, as the solves and the ring delivered them, and the spent
/// syndromes the solves consumed.
pub(crate) struct RebuiltStripes {
    pub(crate) data: Vec<Vec<f64>>,
    pub(crate) parity: Vec<Vec<f64>>,
    pub(crate) syndromes: Vec<Vec<f64>>,
}

impl RebuiltStripes {
    /// Every buffer, for [`give_back`].
    pub(crate) fn into_buffers(self) -> impl Iterator<Item = Vec<f64>> {
        self.data
            .into_iter()
            .chain(self.parity)
            .chain(self.syndromes)
    }
}

/// The buffer pool of the cluster `comm` runs on.
fn pool<'a>(comm: &'a Comm<'_>) -> &'a BufferPool {
    comm.ctx().cluster().pool()
}

/// A pooled copy of `src`.
fn pooled_copy(pool: &BufferPool, src: &[f64], kcfg: KernelConfig) -> Vec<f64> {
    let mut copy = pool.take(src.len());
    kernels::copy(&mut copy, src, kcfg);
    copy
}

/// Fold the data stripe at codeword position `pos` of its slot into the
/// in-flight accumulators of the parity roles `roles` (indices into
/// `accs`): the cancelling contributions when `cancel`. An accumulator
/// still at the identity receives the contribution itself, written into
/// a buffer from `pool`; the others are updated in place, all from one
/// read of the stripe.
fn fold_stripe(
    codec: &dyn ErasureCodec,
    pool: &BufferPool,
    pos: usize,
    roles: &[usize],
    stripe: &[f64],
    cancel: bool,
    accs: &mut [Payload],
) {
    let kcfg = KernelConfig::global();
    let (live, mut bufs): (Vec<usize>, Vec<&mut [f64]>) = accs
        .iter_mut()
        .enumerate()
        .filter(|(role, _)| roles.contains(role))
        .filter_map(|(role, acc)| match acc {
            Payload::Empty => None,
            Payload::F64(v) => Some((role, v.as_mut_slice())),
            other => panic!("expected F64 accumulator, got {}", other.kind()),
        })
        .unzip();
    codec.accumulate(&live, pos, stripe, cancel, &mut bufs, kcfg);
    let fresh: Vec<usize> = roles
        .iter()
        .copied()
        .filter(|role| !live.contains(role))
        .collect();
    let mut started: Vec<Vec<f64>> = fresh.iter().map(|_| pool.take(stripe.len())).collect();
    let mut outs: Vec<&mut [f64]> = started.iter_mut().map(Vec::as_mut_slice).collect();
    codec.contribs_into(&fresh, pos, stripe, cancel, &mut outs, kcfg);
    for (&role, c) in fresh.iter().zip(started) {
        accs[role] = Payload::F64(c);
    }
}

/// Rank `me`'s data stripe of slot `s`: its index in the rank's padded
/// buffer and its position in the slot's codeword.
fn stripe_in_slot(layout: &GroupLayout, me: usize, s: usize) -> (usize, usize) {
    let k = layout
        .stripe_of_slot(me, s)
        .expect("contributor has a stripe");
    let pos = layout
        .codeword_pos(me, s)
        .expect("a ring step visits a slot this rank holds data in");
    (k, pos)
}

/// This rank's freshly encoded parity stripes, one per parity role in
/// role order (each `layout.stripe_len()` long), exactly as the ring
/// delivered them: [`encode_parity`] without the assembly copy. They are
/// pool buffers; the caller gives them back when done.
///
/// `with_data` lends the padded data buffer to one ring fold at a time,
/// so whatever guards the buffer is released before the fold's probe and
/// across every send and receive: a fault injected at the probe (or by
/// another rank while this one waits) may write the buffer's segment.
pub(crate) fn encode_parity_stripes(
    comm: &Comm<'_>,
    layout: &GroupLayout,
    codec: &dyn ErasureCodec,
    with_data: impl Fn(&mut dyn FnMut(&[f64])) -> Result<(), Fault>,
    failpoint: Option<&str>,
) -> Result<Vec<Vec<f64>>, Fault> {
    let n = comm.size();
    let m = codec.parity_count();
    assert_eq!(n, layout.group_size(), "comm/layout size mismatch");
    assert_eq!(m, layout.parity_count(), "codec/layout parity mismatch");
    let me = comm.rank();
    let pool = pool(comm);
    let probe = || failpoint.map_or(Ok(()), |label| comm.ctx().failpoint(label));
    let roles: Vec<usize> = (0..m).collect();
    let delivered = comm.reduce_scatter(m, |s, accs| {
        let (k, pos) = stripe_in_slot(layout, me, s);
        with_data(&mut |data| {
            let stripe = layout.stripe(data, k);
            fold_stripe(codec, pool, pos, &roles, stripe, false, accs)
        })?;
        probe()
    })?;
    let mut my_parity = Vec::with_capacity(m);
    for parity in delivered {
        my_parity.push(parity.into_f64());
        probe()?;
    }
    Ok(my_parity)
}

/// Compute this rank's parity segment (the checksums of the `m` slots
/// whose parity roles it owns) from the group's padded `data` buffers.
///
/// One ring reduce-scatter over the group; every rank returns its
/// `layout.parity_len()`-element segment, role `i` at
/// `layout.parity_range(i)`. When `failpoint` is given, the probe fires
/// `n` times per rank — after each of its `n − m` ring folds and each of
/// the `m` parity stripes delivered to it — exposing the "failure while
/// calculating a new checksum" window (paper CASE 1).
pub fn encode_parity(
    comm: &Comm<'_>,
    layout: &GroupLayout,
    codec: &dyn ErasureCodec,
    data: &[f64],
    failpoint: Option<&str>,
) -> Result<Vec<f64>, Fault> {
    assert_eq!(data.len(), layout.padded_len(), "data must be padded");
    let lend = |fold: &mut dyn FnMut(&[f64])| {
        fold(data);
        Ok(())
    };
    let stripes = encode_parity_stripes(comm, layout, codec, lend, failpoint)?;
    let parity = stripes.concat();
    give_back(comm, stripes);
    Ok(parity)
}

/// Return stripes the engine handed out to the pool of `comm`'s cluster.
pub(crate) fn give_back(comm: &Comm<'_>, stripes: impl IntoIterator<Item = Vec<f64>>) {
    let pool = pool(comm);
    for s in stripes {
        pool.give(s);
    }
}

/// User tag of the finished syndrome of `role` in slot `s` on its way
/// from the role's owner to the slot's lost data holders.
fn syndrome_tag(layout: &GroupLayout, s: usize, role: usize) -> u64 {
    (s * layout.parity_count() + role) as u64
}

/// Rebuild the `lost` ranks' stripes from the survivors' regions, which
/// are lent, never copied: `with_data(k, fold)` lends a survivor's data
/// stripe `k` and `with_parity(role, fold)` its parity stripe of `role`
/// to one fold, in the idiom of [`encode_parity_stripes`] — whatever
/// guards the region is held for that fold only, never across a send or
/// receive. A lender is called exactly for the stripes the rebuild
/// reads: a data stripe in phase A when its slot lost a data holder and
/// in phase B when it lost a parity owner, a parity stripe when it
/// completes a syndrome; a lost rank's lenders never. Every slot's
/// codeword holds every rank once, so with any rank lost each surviving
/// data stripe is lent at least once.
///
/// The lend is where a caller verifies a source (verify-at-lend, see
/// `Checkpointer::rebuild_regions`): a lender that finds its stripe
/// damaged must lend it all the same, so the rings keep their shape,
/// and the caller agrees on what the lenders saw after this returns.
///
/// At most `codec.parity_count()` ranks may be lost. Returns
/// `Some(stripes)` at each lost rank, `None` elsewhere; the stripes are
/// pool buffers, which the caller gives back once it has stored them.
pub(crate) fn reconstruct_stripes(
    comm: &Comm<'_>,
    layout: &GroupLayout,
    codec: &dyn ErasureCodec,
    lost: &[usize],
    with_data: impl Fn(usize, &mut dyn FnMut(&[f64])) -> Result<(), Fault>,
    with_parity: impl Fn(usize, &mut dyn FnMut(&[f64])) -> Result<(), Fault>,
) -> Result<Option<RebuiltStripes>, Fault> {
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
    let me = comm.rank();
    let i_am_lost = lost.contains(&me);
    let kcfg = KernelConfig::global();
    let pool = pool(comm);

    // Per slot: the lost ranks holding data there (ascending, so their
    // codeword positions ascend too), and as many surviving parity
    // roles as that — the lowest ones, one syndrome each. With ≤ m
    // total losses a slot always keeps at least as many roles as it
    // lost data stripes.
    let lost_holders = |s: usize| -> Vec<usize> {
        lost.iter()
            .copied()
            .filter(|&l| layout.contributes(l, s))
            .collect()
    };
    let syndrome_roles = |s: usize| -> Vec<usize> {
        (0..m)
            .filter(|&role| !lost.contains(&layout.parity_owner(s, role)))
            .take(lost_holders(s).len())
            .collect()
    };

    // Phase A. A syndrome is parity ⊕ cancel(surviving stripes) = the
    // combination of the erased stripes' contributions alone. The ring
    // collects the cancelling contributions (a lost rank, and a slot
    // that lost no data, pass the accumulators on untouched) and ends
    // at each role's owner …
    let syndromes = comm.reduce_scatter(m, |s, accs| {
        let roles = syndrome_roles(s);
        if i_am_lost || roles.is_empty() {
            return Ok(());
        }
        let (k, pos) = stripe_in_slot(layout, me, s);
        with_data(k, &mut |stripe| {
            fold_stripe(codec, pool, pos, &roles, stripe, true, accs)
        })
    })?;
    let mut spent = Vec::new();
    let rebuilt_data = if i_am_lost {
        // … a lost rank takes the finished syndromes of every slot it
        // held data in and solves for its own stripe …
        let mut mine = vec![Vec::new(); n - m];
        for s in (0..n).filter(|&s| layout.contributes(me, s)) {
            let erased: Vec<usize> = lost_holders(s)
                .into_iter()
                .map(|l| layout.codeword_pos(l, s).expect("holds data in the slot"))
                .collect();
            let mut finished = Vec::with_capacity(erased.len());
            for role in syndrome_roles(s) {
                let from = layout.parity_owner(s, role);
                let syndrome = comm.recv(from, syndrome_tag(layout, s, role))?;
                finished.push((role, syndrome.into_f64()));
            }
            let (k, my_pos) = stripe_in_slot(layout, me, s);
            let at = erased
                .iter()
                .position(|&pos| pos == my_pos)
                .expect("a lost data holder is among the erased positions");
            let mut stripe = pool.take(layout.stripe_len());
            codec.solve_at_into(&erased, at, &finished, &mut stripe, kcfg);
            spent.extend(finished.into_iter().map(|(_, syndrome)| syndrome));
            mine[k] = stripe;
        }
        Some(mine)
    } else {
        // … which the role's owner completes with its parity stripe and
        // sends to those ranks only.
        for (role, mut acc) in syndromes.into_iter().enumerate() {
            let s = layout.parity_slot(me, role);
            if !syndrome_roles(s).contains(&role) {
                continue;
            }
            with_parity(role, &mut |parity| match (&mut acc, codec.wire()) {
                (Payload::Empty, _) => acc = Payload::F64(pooled_copy(pool, parity, kcfg)),
                (Payload::F64(a), Wire::Bits) => kernels::xor_accumulate(a, parity, kcfg),
                (Payload::F64(a), Wire::Floats) => kernels::sum_accumulate(a, parity, kcfg),
                (other, _) => panic!("expected F64 accumulator, got {}", other.kind()),
            })?;
            let syndrome = acc.into_f64();
            let mut holders = lost_holders(s);
            let last = holders
                .pop()
                .expect("a syndrome role implies a lost holder");
            let tag = syndrome_tag(layout, s, role);
            for l in holders {
                comm.send(l, tag, Payload::F64(pooled_copy(pool, &syndrome, kcfg)))?;
            }
            comm.send(last, tag, Payload::F64(syndrome))?;
        }
        None
    };

    // Phase B: re-encode each lost rank's parity roles from the (now
    // complete) group data — the encode ring, folding only into the
    // accumulators that end at a lost rank. Lost contributors feed the
    // stripes they just solved.
    let delivered = comm.reduce_scatter(m, |s, accs| {
        let roles: Vec<usize> = (0..m)
            .filter(|&role| lost.contains(&layout.parity_owner(s, role)))
            .collect();
        if roles.is_empty() {
            return Ok(());
        }
        let (k, pos) = stripe_in_slot(layout, me, s);
        let mut fold = |stripe: &[f64]| fold_stripe(codec, pool, pos, &roles, stripe, false, accs);
        match &rebuilt_data {
            Some(mine) => {
                fold(&mine[k]);
                Ok(())
            }
            None => with_data(k, &mut fold),
        }
    })?;
    Ok(rebuilt_data.map(|data| RebuiltStripes {
        data,
        parity: delivered.into_iter().map(Payload::into_f64).collect(),
        syndromes: spent,
    }))
}

/// The crate's `reconstruct_stripes` over plain buffers, the rebuilt stripes
/// concatenated: the survivors' padded `data` and per-rank `my_parity`
/// segments (their `C` or `D`) in, `Some((data, parity))` out at each of
/// the at most `codec.parity_count()` lost ranks, `None` elsewhere. A
/// lost rank's buffers are never read (pass anything of the right
/// length). Plain buffers carry no witness, so nothing is verified at
/// the lend; the checkpoint's own rebuild lends its segments instead.
pub fn reconstruct_multi(
    comm: &Comm<'_>,
    layout: &GroupLayout,
    codec: &dyn ErasureCodec,
    lost: &[usize],
    data: &[f64],
    my_parity: &[f64],
) -> Result<Option<Rebuilt>, Fault> {
    assert_eq!(data.len(), layout.padded_len(), "data must be padded");
    assert_eq!(
        my_parity.len(),
        layout.parity_len(),
        "parity length mismatch"
    );
    let lend_data = |k: usize, fold: &mut dyn FnMut(&[f64])| {
        fold(layout.stripe(data, k));
        Ok(())
    };
    let lend_parity = |role: usize, fold: &mut dyn FnMut(&[f64])| {
        fold(&my_parity[layout.parity_range(role)]);
        Ok(())
    };
    let rebuilt = reconstruct_stripes(comm, layout, codec, lost, lend_data, lend_parity)?;
    Ok(rebuilt.map(|stripes| {
        let flat = (stripes.data.concat(), stripes.parity.concat());
        give_back(comm, stripes.into_buffers());
        flat
    }))
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
        let serial = KernelConfig::serial();
        let mut acc = kernels::zeroed(layout.stripe_len());
        for (r, d) in datasets.iter().enumerate() {
            if let Some(k) = layout.stripe_of_slot(r, slot) {
                match code {
                    Code::Xor => kernels::xor_accumulate(&mut acc, layout.stripe(d, k), serial),
                    Code::Sum => kernels::sum_accumulate(&mut acc, layout.stripe(d, k), serial),
                }
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
        // one ring per encode: a single event per rank, and what a rank
        // put on the wire is the m accumulators it passed on (or
        // delivered) after each of its n - m folds — no identity-sized
        // or contribution-sized extras
        let stripe_bytes = (layout.stripe_len() * 8) as u64;
        let sent = ((n - m) * m) as u64 * stripe_bytes;
        assert_eq!(
            rec.count(|e| matches!(
                e,
                Event::Collective { op: "reduce_scatter", bytes, .. } if *bytes == sent
            )),
            n
        );
        assert_eq!(rec.count(|e| matches!(e, Event::Collective { .. })), n);
    }

    #[test]
    fn a_single_loss_under_two_parities_builds_one_syndrome_per_slot() {
        use skt_cluster::{Cluster, ClusterConfig, Event, Ranklist, Recorder};
        use std::sync::Arc;
        let (n, m, lost) = (4, 2, 1);
        let codec = CodecSpec::rs(m).resolve();
        let layout = GroupLayout::new_with_parity(n, m, 16); // stripe 8
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(n, 0)));
        let rec = Arc::new(Recorder::new());
        let out = skt_mps::run_on_cluster(Arc::clone(&cluster), &Ranklist::round_robin(n, n), {
            let rec = Arc::clone(&rec);
            move |ctx| {
                let w = ctx.world();
                let me = ctx.world_rank();
                let data = rank_data(me, layout.padded_len());
                let parity = encode_parity(&w, &layout, codec, &data, None)?;
                w.barrier()?;
                if me == 0 {
                    ctx.cluster().events().subscribe(Arc::clone(&rec) as _);
                }
                w.barrier()?;
                let (d, p) = if me == lost {
                    (
                        vec![0.0; layout.padded_len()],
                        vec![0.0; layout.parity_len()],
                    )
                } else {
                    (data, parity)
                };
                reconstruct_multi(&w, &layout, codec, &[lost], &d, &p)
            }
        })
        .unwrap();
        let (d, _) = out[lost].as_ref().unwrap();
        assert_eq!(d, &rank_data(lost, layout.padded_len()));
        // Phase A: the lost rank held data in two slots, each with one
        // surviving contributor folding into ONE syndrome; that buffer
        // makes one hop where the survivor ends the slot's chain and two
        // where the (pass-through) lost rank does — 3 stripes. Phase B:
        // two lost parity stripes, two contributors each — 4 stripes.
        let stripe_bytes = (layout.stripe_len() * 8) as u64;
        let ring_bytes: u64 = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Collective {
                    op: "reduce_scatter",
                    bytes,
                    ..
                } => Some(*bytes),
                _ => None,
            })
            .sum();
        assert_eq!(ring_bytes, (3 + 4) * stripe_bytes);
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

    /// Every subset of `0..n` with `1..=max` members, ascending.
    fn lost_sets(n: usize, max: usize) -> Vec<Vec<usize>> {
        (1u32..1 << n)
            .filter(|bits| bits.count_ones() as usize <= max)
            .map(|bits| (0..n).filter(|r| bits >> r & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn lenders_are_called_for_exactly_the_stripes_a_rebuild_reads() {
        use std::cell::RefCell;
        for spec in [
            CodecSpec::single(Code::Xor),
            CodecSpec::single(Code::Sum),
            CodecSpec::dual(),
            CodecSpec::rs(2),
            CodecSpec::rs(3),
        ] {
            let codec = spec.resolve();
            let m = codec.parity_count();
            let same = |a: &[f64], b: &[f64]| match codec.wire() {
                Wire::Bits => a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                Wire::Floats => a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9),
            };
            for n in (3..=5).filter(|&n| m < n) {
                let layout = GroupLayout::new_with_parity(n, m, 4 * (n - m) - 1);
                for lost in lost_sets(n, m) {
                    let tag = format!("{spec:?} n={n} lost={lost:?}");
                    let out = run_local(n, |ctx| {
                        let w = ctx.world();
                        let me = ctx.world_rank();
                        let data = rank_data(me, layout.padded_len());
                        let parity = encode_parity(&w, &layout, codec, &data, None)?;
                        let i_am_lost = lost.contains(&me);
                        let (lent_data, lent_parity) = (RefCell::new(vec![]), RefCell::new(vec![]));
                        let lend_data = |k: usize, fold: &mut dyn FnMut(&[f64])| {
                            assert!(!i_am_lost, "{tag}: lost rank {me} lent data stripe {k}");
                            lent_data.borrow_mut().push(k);
                            fold(layout.stripe(&data, k));
                            Ok(())
                        };
                        let lend_parity = |role: usize, fold: &mut dyn FnMut(&[f64])| {
                            assert!(!i_am_lost, "{tag}: lost rank {me} lent parity {role}");
                            lent_parity.borrow_mut().push(role);
                            fold(&parity[layout.parity_range(role)]);
                            Ok(())
                        };
                        let stripes =
                            reconstruct_stripes(&w, &layout, codec, &lost, lend_data, lend_parity)?;
                        // the wrapper reads nothing of a lost rank's buffers
                        let (d, p) = if i_am_lost {
                            (
                                vec![f64::NAN; layout.padded_len()],
                                vec![f64::NAN; layout.parity_len()],
                            )
                        } else {
                            (data.clone(), parity.clone())
                        };
                        let flat = reconstruct_multi(&w, &layout, codec, &lost, &d, &p)?;
                        assert_eq!(
                            stripes
                                .as_ref()
                                .map(|r| (r.data.concat(), r.parity.concat())),
                            flat,
                            "{tag}: rank {me}: the wrapper is the stripes, concatenated"
                        );
                        match &flat {
                            Some((d, p)) => {
                                assert!(i_am_lost, "{tag}: survivor {me} got a rebuild");
                                assert!(same(d, &data), "{tag}: rank {me} data");
                                assert!(same(p, &parity), "{tag}: rank {me} parity");
                                // and, where a serial reference exists that
                                // shares nothing with the ring or the codec:
                                if let CodecSpec::Single(code) = spec {
                                    let datasets: Vec<Vec<f64>> =
                                        (0..n).map(|r| rank_data(r, layout.padded_len())).collect();
                                    let slot = layout.parity_slot(me, 0);
                                    let serial = sequential_parity(code, &layout, slot, &datasets);
                                    assert!(same(p, &serial), "{tag}: rank {me} serial parity");
                                }
                            }
                            None => assert!(!i_am_lost, "{tag}: lost rank {me} got nothing"),
                        }
                        Ok((lent_data.into_inner(), lent_parity.into_inner()))
                    })
                    .unwrap();
                    // What the layout says a survivor must lend: a data
                    // stripe once for phase A when its slot lost a data
                    // holder and once for phase B when it lost a parity
                    // owner; a parity stripe when it is among the slot's
                    // lowest surviving roles, one per lost data holder.
                    let lost_holders =
                        |s: usize| lost.iter().filter(|&&l| layout.contributes(l, s)).count();
                    let lost_owner =
                        |s: usize| (0..m).any(|role| lost.contains(&layout.parity_owner(s, role)));
                    for (r, (mut lent_data, lent_parity)) in out.into_iter().enumerate() {
                        let (mut want_data, mut want_parity) = (vec![], vec![]);
                        if !lost.contains(&r) {
                            for s in (0..n).filter(|&s| layout.contributes(r, s)) {
                                let k = layout.stripe_of_slot(r, s).unwrap();
                                want_data.extend((lost_holders(s) > 0).then_some(k));
                                want_data.extend(lost_owner(s).then_some(k));
                            }
                            for role in 0..m {
                                let s = layout.parity_slot(r, role);
                                let below = (0..role)
                                    .filter(|&i| !lost.contains(&layout.parity_owner(s, i)))
                                    .count();
                                want_parity.extend((below < lost_holders(s)).then_some(role));
                            }
                        }
                        lent_data.sort_unstable();
                        want_data.sort_unstable();
                        assert_eq!(lent_data, want_data, "{tag}: rank {r} data lends");
                        assert_eq!(lent_parity, want_parity, "{tag}: rank {r} parity lends");
                    }
                }
            }
        }
    }
}
