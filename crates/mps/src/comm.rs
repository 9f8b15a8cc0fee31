//! Communicators: point-to-point messaging, `MPI_Comm_split`,
//! tree-based collectives (`bcast`, `reduce`, `allreduce`, `barrier`,
//! `gather`, `allgather`) and the ring
//! [`Comm::reduce_scatter`] that carries the checkpoint encode.

use crate::payload::{Payload, ReduceOp};
use crate::world::Ctx;
use skt_cluster::{Event, Fault};
use std::cell::Cell;

/// A message in flight.
#[derive(Debug)]
pub struct Envelope {
    /// Communicator id the message belongs to.
    pub(crate) comm: u64,
    /// Sender's rank *within that communicator*.
    pub(crate) src: usize,
    /// Message tag (user tags < 2^32; internal collective tags above).
    pub(crate) tag: u64,
    /// The body.
    pub(crate) payload: Payload,
}

const USER_TAG_LIMIT: u64 = 1 << 32;

#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A communicator bound to this rank's [`Ctx`].
///
/// All members of a communicator must issue collective calls on it in the
/// same program order (standard MPI requirement); internal tags are drawn
/// from a per-communicator sequence so concurrent collectives on
/// *different* communicators do not collide.
pub struct Comm<'c> {
    ctx: &'c Ctx,
    id: u64,
    ranks: Vec<usize>,
    me: usize,
}

impl Clone for Comm<'_> {
    /// A cloned communicator is the *same* communicator (same id): the
    /// collective tag sequence lives in the rank's [`Ctx`] keyed by the
    /// id, so collectives issued through either handle stay ordered.
    fn clone(&self) -> Self {
        Comm {
            ctx: self.ctx,
            id: self.id,
            ranks: self.ranks.clone(),
            me: self.me,
        }
    }
}

impl<'c> Comm<'c> {
    /// The world communicator of a rank.
    pub(crate) fn world(ctx: &'c Ctx) -> Self {
        Comm {
            ctx,
            id: 0,
            ranks: (0..ctx.nranks()).collect(),
            me: ctx.world_rank(),
        }
    }

    /// This rank's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.me
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// World ranks of all members, in comm-rank order.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// The communicator id (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The context this communicator is bound to.
    pub fn ctx(&self) -> &'c Ctx {
        self.ctx
    }

    /// Point-to-point send to comm rank `dst` with a user `tag`
    /// (< 2^32).
    pub fn send(&self, dst: usize, tag: u64, payload: Payload) -> Result<(), Fault> {
        assert!(tag < USER_TAG_LIMIT, "user tag {tag} out of range");
        self.send_tagged(dst, tag, payload)
    }

    fn send_tagged(&self, dst: usize, tag: u64, payload: Payload) -> Result<(), Fault> {
        let env = Envelope {
            comm: self.id,
            src: self.me,
            tag,
            payload,
        };
        self.ctx.raw_send(self.ranks[dst], env)
    }

    /// Blocking receive from comm rank `src` with user `tag`.
    pub fn recv(&self, src: usize, tag: u64) -> Result<Payload, Fault> {
        assert!(tag < USER_TAG_LIMIT, "user tag {tag} out of range");
        self.recv_tagged(src, tag)
    }

    fn recv_tagged(&self, src: usize, tag: u64) -> Result<Payload, Fault> {
        let id = self.id;
        self.ctx
            .recv_match(|e| e.comm == id && e.src == src && e.tag == tag)
            .map(|e| e.payload)
    }

    /// Allocate `k` consecutive internal collective tags.
    fn alloc_tags(&self, k: u64) -> u64 {
        let seq = self.ctx.alloc_coll_seq(self.id, k);
        USER_TAG_LIMIT + seq
    }

    /// Time a collective body and emit a [`Event::Collective`] when an
    /// observer is listening; free (one atomic load) otherwise.
    /// `bytes` is read once the body is done, so a collective may count
    /// what it put on the wire as it goes.
    fn observed<T>(
        &self,
        op: &'static str,
        bytes: &Cell<usize>,
        body: impl FnOnce() -> Result<T, Fault>,
    ) -> Result<T, Fault> {
        let bus = self.ctx.cluster().events();
        if !bus.is_active() {
            return body();
        }
        let t = self.ctx.stopwatch();
        let out = body()?;
        bus.emit(Event::Collective {
            op,
            bytes: bytes.get() as u64,
            elapsed: t.elapsed(),
        });
        Ok(out)
    }

    /// Broadcast from comm rank `root` over a binomial tree. Every rank
    /// passes its (cheap, possibly empty) `payload`; non-roots get the
    /// root's payload back.
    pub fn bcast(&self, root: usize, payload: Payload) -> Result<Payload, Fault> {
        let bytes = Cell::new(payload.size_bytes());
        self.observed("bcast", &bytes, || self.bcast_inner(root, payload))
    }

    fn bcast_inner(&self, root: usize, payload: Payload) -> Result<Payload, Fault> {
        let size = self.size();
        let tag = self.alloc_tags(1);
        if size == 1 {
            return Ok(payload);
        }
        let vr = (self.me + size - root) % size;
        let actual = |v: usize| (v + root) % size;
        let mut data = if self.me == root { Some(payload) } else { None };
        let mut mask = 1usize;
        while mask < size {
            if vr & mask != 0 {
                data = Some(self.recv_tagged(actual(vr - mask), tag)?);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        let data = data.ok_or(Fault::Protocol("bcast: no data at send phase"))?;
        while mask > 0 {
            if vr + mask < size {
                self.send_tagged(actual(vr + mask), tag, data.clone())?;
            }
            mask >>= 1;
        }
        Ok(data)
    }

    /// Reduce to comm rank `root` over a binomial tree; the root gets
    /// `Some(result)`, everyone else `None`. Matches `MPI_Reduce` with the
    /// operators of [`ReduceOp`] — including `Xor` on `F64` bit patterns,
    /// the encoding primitive of the paper (§2.2).
    ///
    /// A rank with nothing to contribute passes [`Payload::Empty`], the
    /// identity of every operator: the tree keeps its shape and tags,
    /// but an empty side is forwarded or adopted by move instead of
    /// combined (all-empty reduces to `Empty`, which is what a barrier
    /// is). Non-empty contributions must still agree in kind and length.
    pub fn reduce(
        &self,
        op: ReduceOp,
        root: usize,
        payload: Payload,
    ) -> Result<Option<Payload>, Fault> {
        let bytes = Cell::new(payload.size_bytes());
        self.observed("reduce", &bytes, || self.reduce_inner(op, root, payload))
    }

    fn reduce_inner(
        &self,
        op: ReduceOp,
        root: usize,
        payload: Payload,
    ) -> Result<Option<Payload>, Fault> {
        let size = self.size();
        let tag = self.alloc_tags(1);
        if size == 1 {
            return Ok(Some(payload));
        }
        let vr = (self.me + size - root) % size;
        let actual = |v: usize| (v + root) % size;
        let mut acc = payload;
        let mut mask = 1usize;
        while mask < size {
            if vr & mask == 0 {
                let peer = vr | mask;
                if peer < size {
                    let rhs = self.recv_tagged(actual(peer), tag)?;
                    op.fold(&mut acc, rhs);
                }
            } else {
                self.send_tagged(actual(vr - mask), tag, acc)?;
                return Ok(None);
            }
            mask <<= 1;
        }
        Ok(Some(acc))
    }

    /// Reduce `n` slots of `m` accumulators each and scatter the
    /// results, as one balanced ring — the shape of the paper's stripe
    /// encoding (§2.2, Figure 1), where every rank owns one parity role
    /// of `m` slots and holds data in the other `n − m`.
    ///
    /// Slot `s`'s contributors are the ranks `s+m … s+n−1` (mod `n`), in
    /// that order; accumulator `i` of slot `s` ends at rank `s+i`. At
    /// step `t` of `n − m` rank `r` is the `t`-th contributor of slot
    /// `r−m−t`: it takes the slot's `m` in-flight accumulators from rank
    /// `r−1` (at step 0 they start as [`Payload::Empty`], the identity),
    /// lets `fold(slot, accumulators)` combine this rank's part into
    /// them, and passes them on to `r+1` — or, as the slot's last
    /// contributor, hands accumulator `i` to rank `s+i`. Every rank is
    /// busy at every step and moves `m` accumulators per step. Returns
    /// this rank's `m` results, accumulator `i` being that of slot
    /// `r−i`; one a slot's contributors all left alone comes back
    /// `Empty`.
    ///
    /// `fold` decides what combining means (a [`ReduceOp::fold`], or a
    /// codec's multiply-accumulate fused into the in-flight buffer) and
    /// must treat `Empty` as the identity; an error it returns ends the
    /// collective on this rank.
    pub fn reduce_scatter(
        &self,
        m: usize,
        mut fold: impl FnMut(usize, &mut [Payload]) -> Result<(), Fault>,
    ) -> Result<Vec<Payload>, Fault> {
        let n = self.size();
        assert!(
            m < n,
            "reduce_scatter: {m} accumulators need more than {n} ranks"
        );
        let sent = Cell::new(0);
        self.observed("reduce_scatter", &sent, || {
            let tags = self.alloc_tags((n * m) as u64);
            let tag = |slot: usize, i: usize| tags + (slot * m + i) as u64;
            let me = self.me;
            let send = |dst: usize, slot: usize, i: usize, acc: Payload| {
                sent.set(sent.get() + acc.size_bytes());
                self.send_tagged(dst % n, tag(slot, i), acc)
            };
            for t in 0..n - m {
                let slot = (me + 2 * n - m - t) % n;
                let mut accs = match t {
                    0 => vec![Payload::Empty; m],
                    _ => (0..m)
                        .map(|i| self.recv_tagged((me + n - 1) % n, tag(slot, i)))
                        .collect::<Result<_, _>>()?,
                };
                fold(slot, &mut accs)?;
                let last = t + 1 == n - m;
                for (i, acc) in accs.into_iter().enumerate() {
                    send(if last { slot + i } else { me + 1 }, slot, i, acc)?;
                }
            }
            (0..m)
                .map(|i| {
                    let slot = (me + n - i) % n;
                    self.recv_tagged((slot + n - 1) % n, tag(slot, i))
                })
                .collect()
        })
    }

    /// Reduce followed by broadcast of the result.
    pub fn allreduce(&self, op: ReduceOp, payload: Payload) -> Result<Payload, Fault> {
        let reduced = self.reduce(op, 0, payload)?;
        self.bcast(0, reduced.unwrap_or(Payload::Empty))
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) -> Result<(), Fault> {
        self.allreduce(ReduceOp::Sum, Payload::Empty)?;
        Ok(())
    }

    /// Gather everyone's payload at `root`, in comm-rank order.
    pub fn gather(&self, root: usize, payload: Payload) -> Result<Option<Vec<Payload>>, Fault> {
        let size = self.size();
        let tag = self.alloc_tags(1);
        if self.me == root {
            let mut out: Vec<Option<Payload>> = (0..size).map(|_| None).collect();
            out[root] = Some(payload);
            for _ in 0..size - 1 {
                let id = self.id;
                let env = self.ctx.recv_match(|e| e.comm == id && e.tag == tag)?;
                if out[env.src].is_some() {
                    return Err(Fault::Protocol("gather: duplicate contribution"));
                }
                out[env.src] = Some(env.payload);
            }
            assemble_gather(out).map(Some)
        } else {
            self.send_tagged(root, tag, payload)?;
            Ok(None)
        }
    }

    /// Gather everyone's payload at every rank.
    pub fn allgather(&self, payload: Payload) -> Result<Vec<Payload>, Fault> {
        let size = self.size();
        let tags = self.alloc_tags(size as u64); // distribution tags
        match self.gather(0, payload)? {
            Some(all) => {
                for dst in 1..size {
                    for (i, p) in all.iter().enumerate() {
                        self.send_tagged(dst, tags + i as u64, p.clone())?;
                    }
                }
                Ok(all)
            }
            None => {
                let mut all = Vec::with_capacity(size);
                for i in 0..size {
                    all.push(self.recv_tagged(0, tags + i as u64)?);
                }
                Ok(all)
            }
        }
    }

    /// Split into sub-communicators by `color`; members of the same color
    /// form a child comm ordered by `(key, world_rank)` — the semantics of
    /// `MPI_Comm_split`.
    pub fn split(&self, color: u64, key: usize) -> Result<Comm<'c>, Fault> {
        let salt = self.ctx.next_split_salt();
        let mine = Payload::I64(vec![color as i64, key as i64]);
        let all = self.allgather(mine)?;
        let mut members: Vec<(usize, usize)> = Vec::new(); // (key, world_rank)
        for (r, p) in all.iter().enumerate() {
            let v = match p {
                Payload::I64(v) => v,
                _ => return Err(Fault::Protocol("split: unexpected payload type")),
            };
            if v[0] as u64 == color {
                members.push((v[1] as usize, self.ranks[r]));
            }
        }
        members.sort_unstable();
        let ranks: Vec<usize> = members.iter().map(|(_, wr)| *wr).collect();
        let my_world = self.ranks[self.me];
        let me = ranks
            .iter()
            .position(|&r| r == my_world)
            .ok_or(Fault::Protocol(
                "split: calling rank missing from its group",
            ))?;
        let id = mix(self.id ^ mix(salt) ^ mix(color.wrapping_mul(0x9E37_79B9)));
        Ok(Comm {
            ctx: self.ctx,
            id,
            ranks,
            me,
        })
    }
}

/// Final assembly of a gather at the root: every slot must be filled.
///
/// The live receive loop cannot leave a hole (`size - 1` distinct,
/// non-duplicate contributions fill every non-root slot by pigeonhole),
/// but the invariant is kept as a typed fault so a refactor of the loop
/// can never silently hand the caller a partial vector.
fn assemble_gather(slots: Vec<Option<Payload>>) -> Result<Vec<Payload>, Fault> {
    slots
        .into_iter()
        .map(|p| p.ok_or(Fault::Protocol("gather: missing rank")))
        .collect()
}

impl Ctx {
    fn alloc_coll_seq(&self, comm_id: u64, k: u64) -> u64 {
        // per-(ctx, comm) sequence; all members advance identically
        // because collectives are issued in the same order.
        let mut map = self.coll_seqs.borrow_mut();
        let seq = map.entry(comm_id).or_insert(0);
        let out = *seq;
        *seq += k;
        out
    }

    fn next_split_salt(&self) -> u64 {
        let s = self.next_comm_salt.get();
        self.next_comm_salt.set(s + 1);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::run_local;

    #[test]
    fn bcast_from_each_root() {
        for root in 0..5 {
            let out = run_local(5, move |ctx| {
                let w = ctx.world();
                let payload = if w.rank() == root {
                    Payload::F64(vec![root as f64 * 1.5])
                } else {
                    Payload::Empty
                };
                Ok(w.bcast(root, payload)?.into_f64()[0])
            })
            .unwrap();
            assert_eq!(out, vec![root as f64 * 1.5; 5], "root {root}");
        }
    }

    #[test]
    fn reduce_sum_collects_everything() {
        let out = run_local(7, |ctx| {
            let w = ctx.world();
            let r = w.reduce(
                ReduceOp::Sum,
                2,
                Payload::F64(vec![ctx.world_rank() as f64]),
            )?;
            Ok(r.map(|p| p.into_f64()[0]))
        })
        .unwrap();
        for (rank, v) in out.iter().enumerate() {
            if rank == 2 {
                assert_eq!(*v, Some(21.0)); // 0+1+...+6
            } else {
                assert_eq!(*v, None);
            }
        }
    }

    #[test]
    fn reduce_xor_matches_sequential_xor() {
        let out = run_local(6, |ctx| {
            let w = ctx.world();
            let word = 0x1111u64 << ctx.world_rank();
            let r = w.reduce(ReduceOp::Xor, 0, Payload::F64(vec![f64::from_bits(word)]))?;
            Ok(r.map(|p| p.into_f64()[0].to_bits()))
        })
        .unwrap();
        let expect = (0..6).fold(0u64, |acc, r| acc ^ (0x1111u64 << r));
        assert_eq!(out[0], Some(expect));
    }

    /// Rank `r`'s contribution in the identity sweeps: 3 exactly
    /// representable words, distinct per rank (sums stay exact in any
    /// association, so the tree must equal the sequential fold bitwise).
    fn contribution(r: usize) -> Vec<f64> {
        (0..3).map(|j| ((r + 1) * (j + 2)) as f64).collect()
    }

    /// Sequential fold of the contributions of the ranks in `mask`.
    fn sequential(op: ReduceOp, n: usize, mask: u32) -> Payload {
        let mut acc = Payload::Empty;
        for r in (0..n).filter(|r| mask & (1 << r) != 0) {
            op.fold(&mut acc, Payload::F64(contribution(r)));
        }
        acc
    }

    #[test]
    fn empty_is_the_identity_of_reduce_and_allreduce() {
        // every size, root, operator and subset of contributing ranks,
        // as one sequence of collectives per world
        for n in 1..=7usize {
            let out = run_local(n, move |ctx| {
                let w = ctx.world();
                let mut seen = Vec::new();
                for op in [ReduceOp::Xor, ReduceOp::Sum] {
                    for mask in 0..1u32 << n {
                        let mine = || match mask & (1 << w.rank()) != 0 {
                            true => Payload::F64(contribution(w.rank())),
                            false => Payload::Empty,
                        };
                        for root in 0..n {
                            seen.push(w.reduce(op, root, mine())?);
                        }
                        seen.push(Some(w.allreduce(op, mine())?));
                    }
                }
                Ok(seen)
            })
            .unwrap();
            for (rank, seen) in out.iter().enumerate() {
                let mut seen = seen.iter();
                for op in [ReduceOp::Xor, ReduceOp::Sum] {
                    for mask in 0..1u32 << n {
                        let want = sequential(op, n, mask);
                        for root in 0..n {
                            let got = seen.next().unwrap();
                            let expect = (rank == root).then(|| want.clone());
                            assert_eq!(*got, expect, "n={n} {op:?} mask={mask:#b} root={root}");
                        }
                        let got = seen.next().unwrap();
                        assert_eq!(*got, Some(want), "n={n} {op:?} mask={mask:#b} allreduce");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn non_empty_contributions_must_still_agree_in_length() {
        let _ = run_local(2, |ctx| {
            let w = ctx.world();
            let len = 1 + w.rank();
            w.reduce(ReduceOp::Xor, 0, Payload::F64(vec![1.0; len]))
        });
    }

    /// Rank `r`'s part of accumulator `i` of slot `s` in the
    /// reduce-scatter sweep: distinct per (rank, slot, accumulator) so a
    /// misrouted or misfolded buffer cannot cancel out, and exactly
    /// representable so SUM is exact in any association.
    fn part(r: usize, s: usize, i: usize) -> Vec<f64> {
        (0..3)
            .map(|j| ((r + 1) * (j + 2) + 64 * s + 1024 * i) as f64)
            .collect()
    }

    #[test]
    fn empty_is_the_identity_of_reduce_scatter() {
        // every size, accumulator count, operator and subset of
        // contributing ranks, as one sequence of collectives per world
        for n in 1..=7usize {
            let out = run_local(n, move |ctx| {
                let w = ctx.world();
                let mut seen = Vec::new();
                for m in 0..n {
                    for op in [ReduceOp::Xor, ReduceOp::Sum] {
                        for mask in 0..1u32 << n {
                            seen.push(w.reduce_scatter(m, |s, accs| {
                                assert_eq!(accs.len(), m);
                                if mask & (1 << w.rank()) != 0 {
                                    for (i, acc) in accs.iter_mut().enumerate() {
                                        op.fold(acc, Payload::F64(part(w.rank(), s, i)));
                                    }
                                }
                                Ok(())
                            })?);
                        }
                    }
                }
                Ok(seen)
            })
            .unwrap();
            for (rank, seen) in out.iter().enumerate() {
                let mut seen = seen.iter();
                for m in 0..n {
                    for op in [ReduceOp::Xor, ReduceOp::Sum] {
                        for mask in 0..1u32 << n {
                            // accumulator i of slot rank - i, folded in
                            // ring order from the slot's first contributor
                            let want: Vec<Payload> = (0..m)
                                .map(|i| {
                                    let s = (rank + n - i) % n;
                                    let mut acc = Payload::Empty;
                                    for r in (m..n).map(|d| (s + d) % n) {
                                        if mask & (1 << r) != 0 {
                                            op.fold(&mut acc, Payload::F64(part(r, s, i)));
                                        }
                                    }
                                    acc
                                })
                                .collect();
                            assert_eq!(
                                *seen.next().unwrap(),
                                want,
                                "n={n} m={m} {op:?} mask={mask:#b} rank={rank}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn reduce_scatter_contributions_must_agree_in_length() {
        // n = 3, m = 1: every slot has two contributors
        let _ = run_local(3, |ctx| {
            let w = ctx.world();
            let len = 1 + w.rank();
            w.reduce_scatter(1, |_, accs| {
                ReduceOp::Xor.fold(&mut accs[0], Payload::F64(vec![1.0; len]));
                Ok(())
            })
        });
    }

    #[test]
    fn reduce_scatter_emits_one_event_with_the_bytes_it_sent() {
        use skt_cluster::Recorder;
        use std::sync::Arc;
        let rec = Arc::new(Recorder::new());
        let rec2 = Arc::clone(&rec);
        let (n, m) = (5, 2);
        run_local(n, move |ctx| {
            if ctx.world_rank() == 0 {
                ctx.cluster().events().subscribe(Arc::clone(&rec2) as _);
            }
            let w = ctx.world();
            w.barrier()?; // ensure subscription ordered before the timed op
            w.reduce_scatter(m, |s, accs| {
                // only rank 0 contributes: a slot's buffers exist from
                // rank 0's fold to the end of its chain
                if w.rank() == 0 {
                    for (i, acc) in accs.iter_mut().enumerate() {
                        ReduceOp::Sum.fold(acc, Payload::F64(part(0, s, i)));
                    }
                }
                Ok(())
            })?;
            Ok(())
        })
        .unwrap();
        let sent: Vec<u64> = rec
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
            .collect();
        assert_eq!(sent.len(), n, "one event per rank: {sent:?}");
        // rank 0 folds into m accumulators of 24 bytes in each of its
        // n - m = 3 slots; slot s's chain ends at rank s - 1, so after
        // rank 0 the buffers of slots 1, 2, 3 make 0, 1, 2 further hops
        let hops = 3 + (1 + 2);
        assert_eq!(sent.iter().sum::<u64>(), (hops * m * 24) as u64);
    }

    #[test]
    fn allreduce_gives_everyone_the_result() {
        let out = run_local(4, |ctx| {
            let w = ctx.world();
            let r = w.allreduce(
                ReduceOp::Max,
                Payload::I64(vec![(ctx.world_rank() as i64) * 7]),
            )?;
            Ok(r.into_i64()[0])
        })
        .unwrap();
        assert_eq!(out, vec![21; 4]);
    }

    #[test]
    fn barrier_completes() {
        // nothing to assert beyond termination across odd sizes
        for n in [1, 2, 3, 8] {
            run_local(n, |ctx| {
                for _ in 0..3 {
                    ctx.world().barrier()?;
                }
                Ok(())
            })
            .unwrap();
        }
    }

    #[test]
    fn gather_orders_by_rank() {
        let out = run_local(4, |ctx| {
            let w = ctx.world();
            let r = w.gather(1, Payload::I64(vec![ctx.world_rank() as i64 * 3]))?;
            Ok(r.map(|v| v.into_iter().map(|p| p.into_i64()[0]).collect::<Vec<_>>()))
        })
        .unwrap();
        assert_eq!(out[1], Some(vec![0, 3, 6, 9]));
        assert_eq!(out[0], None);
    }

    #[test]
    fn allgather_everyone_sees_all() {
        let out = run_local(5, |ctx| {
            let w = ctx.world();
            let v = w.allgather(Payload::I64(vec![ctx.world_rank() as i64]))?;
            Ok(v.into_iter().map(|p| p.into_i64()[0]).collect::<Vec<_>>())
        })
        .unwrap();
        for v in out {
            assert_eq!(v, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn split_by_parity() {
        let out = run_local(6, |ctx| {
            let w = ctx.world();
            let color = (ctx.world_rank() % 2) as u64;
            let sub = w.split(color, ctx.world_rank())?;
            // sum within each subgroup
            let s = sub.allreduce(ReduceOp::Sum, Payload::I64(vec![ctx.world_rank() as i64]))?;
            Ok((sub.size(), sub.rank(), s.into_i64()[0]))
        })
        .unwrap();
        // evens: 0+2+4=6; odds: 1+3+5=9
        assert_eq!(out[0], (3, 0, 6));
        assert_eq!(out[1], (3, 0, 9));
        assert_eq!(out[4], (3, 2, 6));
        assert_eq!(out[5], (3, 2, 9));
    }

    #[test]
    fn split_key_reorders_ranks() {
        let out = run_local(4, |ctx| {
            let w = ctx.world();
            // reverse order via key
            let sub = w.split(0, 100 - ctx.world_rank())?;
            Ok((sub.rank(), sub.ranks().to_vec()))
        })
        .unwrap();
        assert_eq!(out[0].1, vec![3, 2, 1, 0]);
        assert_eq!(out[3].0, 0, "highest world rank gets lowest key");
    }

    #[test]
    fn nested_splits_do_not_collide() {
        let out = run_local(8, |ctx| {
            let w = ctx.world();
            let row = w.split((ctx.world_rank() / 4) as u64, ctx.world_rank())?;
            let col = w.split((ctx.world_rank() % 4) as u64, ctx.world_rank())?;
            let rs = row
                .allreduce(ReduceOp::Sum, Payload::I64(vec![1]))?
                .into_i64()[0];
            let cs = col
                .allreduce(ReduceOp::Sum, Payload::I64(vec![1]))?
                .into_i64()[0];
            Ok((rs, cs))
        })
        .unwrap();
        assert!(out.iter().all(|&(r, c)| r == 4 && c == 2));
    }

    #[test]
    fn concurrent_collectives_on_different_comms() {
        // bcast on a subgroup while the other subgroup reduces
        let out = run_local(4, |ctx| {
            let w = ctx.world();
            let color = (ctx.world_rank() / 2) as u64;
            let sub = w.split(color, ctx.world_rank())?;
            if color == 0 {
                let v = sub.bcast(0, Payload::I64(vec![42]))?;
                Ok(v.into_i64()[0])
            } else {
                let v = sub.allreduce(ReduceOp::Sum, Payload::I64(vec![10]))?;
                Ok(v.into_i64()[0])
            }
        })
        .unwrap();
        assert_eq!(out, vec![42, 42, 20, 20]);
    }

    #[test]
    fn collectives_emit_events_when_observed() {
        use skt_cluster::Recorder;
        use std::sync::Arc;
        let rec = Arc::new(Recorder::new());
        let rec2 = Arc::clone(&rec);
        run_local(4, move |ctx| {
            if ctx.world_rank() == 0 {
                ctx.cluster().events().subscribe(Arc::clone(&rec2) as _);
            }
            let w = ctx.world();
            w.barrier()?; // ensure subscription ordered before the timed op
            w.allreduce(ReduceOp::Sum, Payload::F64(vec![1.0; 8]))?;
            Ok(())
        })
        .unwrap();
        assert!(
            rec.count(|e| matches!(
                e,
                Event::Collective {
                    op: "reduce",
                    bytes: 64,
                    ..
                }
            )) >= 1,
            "allreduce must surface reduce events: {:?}",
            rec.events()
        );
        assert!(rec.count(|e| matches!(e, Event::Collective { op: "bcast", .. })) >= 1);
    }

    #[test]
    fn gather_duplicate_contribution_is_a_typed_fault() {
        let out = run_local(3, |ctx| {
            let w = ctx.world();
            // The first collective on the world comm draws internal tag
            // `USER_TAG_LIMIT + 0`; rank 1 forges a second contribution
            // on that tag while rank 2 stays silent, so the root sees
            // rank 1 twice within its expected `size - 1` receives.
            let tag = USER_TAG_LIMIT;
            match ctx.world_rank() {
                0 => match w.gather(0, Payload::Empty) {
                    Err(Fault::Protocol(msg)) => Ok(msg.contains("duplicate contribution")),
                    other => panic!("expected a duplicate-contribution fault, got {other:?}"),
                },
                1 => {
                    w.send_tagged(0, tag, Payload::I64(vec![1]))?;
                    w.send_tagged(0, tag, Payload::I64(vec![1]))?;
                    Ok(true)
                }
                _ => Ok(true),
            }
        })
        .unwrap();
        assert!(out.into_iter().all(|b| b));
    }

    #[test]
    fn gather_assembly_reports_a_missing_rank() {
        let slots = vec![Some(Payload::Empty), None, Some(Payload::Empty)];
        match assemble_gather(slots) {
            Err(Fault::Protocol(msg)) => assert!(msg.contains("missing rank")),
            other => panic!("expected a missing-rank fault, got {other:?}"),
        }
    }

    #[test]
    fn collectives_on_a_dead_peer_fail_fast_with_the_culprit_named() {
        type Collective = fn(&Comm<'_>) -> Result<(), Fault>;
        let collectives: [Collective; 2] = [
            |w| w.barrier(),
            // every rank waits on its ring neighbour, directly or not
            |w| w.reduce_scatter(1, |_, _| Ok(())).map(drop),
        ];
        for collective in collectives {
            let t0 = std::time::Instant::now();
            let out = run_local(3, |ctx| {
                if ctx.world_rank() == 2 {
                    // die unannounced; the survivors are (or soon will be)
                    // parked inside the collective waiting on this rank
                    ctx.cluster().kill_node(ctx.node());
                }
                Ok(collective(&ctx.world()))
            })
            .unwrap();
            for (rank, r) in out.iter().enumerate() {
                assert_eq!(
                    *r,
                    Err(Fault::NodeDead(2)),
                    "rank {rank} must learn the culprit promptly, not park forever"
                );
            }
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(5),
                "abort must propagate within the poll interval, not hang"
            );
        }
    }

    #[test]
    #[should_panic(expected = "user tag")]
    fn user_tags_above_limit_rejected() {
        let _ = run_local(2, |ctx| {
            let w = ctx.world();
            w.send(0, 1 << 33, Payload::Empty)?;
            Ok(())
        });
    }
}
