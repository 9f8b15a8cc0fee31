//! Per-layer probes of the traced pass: each layer measured from
//! outside, by timing calls into its public functions, in the same
//! process run as the memcpy ceiling they are divided by.
//!
//! Bandwidth probes use 64 MiB buffers (16x the build host's two 2 MiB
//! L2s; its 260 MiB L3 is host-shared and cannot be exceeded), a single
//! caller thread and the ambient `KernelConfig::global()`. Codec, mps
//! and core probes run at the workload's own codec, group size and
//! stripe length.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::fail_recover::Group;
use crate::workloads::{fill, Checks, LayerCtx};
use skt_cluster::{Cluster, ClusterConfig, Event, EventBus, Observer, Ranklist, Recorder};
use skt_core::{encode_parity, reconstruct_multi, Checkpointer, CkptConfig, Method, RestoreSource};
use skt_encoding::{crc32c_f64, kernels, CodecSpec, DualParity, GroupLayout, KernelConfig};
use skt_linalg::{dgemm, dgetrf, Trans};
use skt_mps::{run_on_cluster, Fault, Payload, ReduceOp};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Elements of a bandwidth-probe buffer: 64 MiB of `f64`.
const BIG: usize = 8 << 20;
const REPS: usize = 7;
/// `B2` words a checkpointer with an 8-byte `A2` appends to `A1`.
const B2_WORDS: usize = 2;

/// Median seconds of `reps` calls of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn gbps(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / seconds / 1e9
}

fn buffer(len: usize, salt: u64) -> Vec<f64> {
    (0..len)
        .map(|i| f64::from_bits((i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

/// `host.*` and the byte kernels of `encoding.*`.
fn kernels_probe(v: &mut Values) {
    let kcfg = KernelConfig::global();
    let src = buffer(BIG, 1);
    let mut dst = buffer(BIG, 2);
    let bytes = BIG * 8;
    let mut rate = |v: &mut Values, name, f: &mut dyn FnMut(&mut [f64], &[f64])| {
        let s = time_median(REPS, || f(black_box(&mut dst), black_box(&src)));
        v.insert(name, gbps(bytes, s));
    };
    rate(v, "host.memcpy_GBps", &mut |d, s| d.copy_from_slice(s));
    rate(v, "encoding.copy_GBps", &mut |d, s| {
        kernels::copy(d, s, kcfg)
    });
    rate(v, "encoding.xor_GBps", &mut |d, s| {
        kernels::xor_accumulate(d, s, kcfg)
    });
    rate(v, "encoding.gf_mac_GBps", &mut |d, s| {
        kernels::gf_mac(d, s, 0x53, kcfg)
    });
    rate(v, "encoding.crc32c_GBps", &mut |_, s| {
        black_box(crc32c_f64(s, kcfg));
    });
    rate(v, "encoding.bits_roundtrip_GBps", &mut |_, s| {
        black_box(kernels::floats_of(&kernels::bits_of(s, kcfg), kcfg));
    });
    v.insert("host.nproc", crate::host::nproc() as f64);
    v.insert("host.kernel_threads", kcfg.threads as f64);
}

/// `encoding.codec_*` and `encoding.dual_encode_GBps` at the workload's
/// geometry.
fn codec_probe(ctx: &LayerCtx, v: &mut Values) {
    let kcfg = KernelConfig::global();
    let codec = ctx.codec.resolve();
    let (n, m) = (ctx.group, codec.parity_count());
    let layout = GroupLayout::new_with_parity(n, m, ctx.a1_len + B2_WORDS);
    let data: Vec<Vec<f64>> = (0..n)
        .map(|r| buffer(layout.padded_len(), r as u64))
        .collect();
    let group_bytes = n * layout.padded_len() * 8;

    // The walk encode_parity makes, for every slot and role of the
    // group, with the reduce replaced by a local accumulate.
    let s = time_median(5, || {
        for slot in 0..n {
            for role in 0..m {
                let mut acc = kernels::zeroed(layout.stripe_len());
                for (r, d) in data.iter().enumerate() {
                    if let Some(pos) = layout.codeword_pos(r, slot) {
                        let k = layout.stripe_of_slot(r, slot).expect("contributor");
                        let c = codec.contrib(role, pos, layout.stripe(d, k), kcfg);
                        kernels::xor_accumulate(&mut acc, &c, kcfg);
                    }
                }
                black_box(&acc);
            }
        }
    });
    let encode = gbps(group_bytes, s);
    v.insert("encoding.codec_encode_GBps", encode);
    let kernel = match ctx.codec {
        CodecSpec::Single(_) => v["encoding.xor_GBps"],
        _ => v["encoding.gf_mac_GBps"],
    };
    v.insert("encoding.codec_encode_of_kernel", encode / kernel);

    // The hand-written P+Q over the same bytes: k = n - 2 data stripes
    // per slot, at the stripe length a dual layout gives this workspace.
    let dual = GroupLayout::new_with_parity(n, 2, ctx.a1_len + B2_WORDS);
    let k = n - 2;
    let stripes: Vec<Vec<f64>> = (0..k)
        .map(|i| buffer(dual.stripe_len(), 40 + i as u64))
        .collect();
    let refs: Vec<&[f64]> = stripes.iter().map(Vec::as_slice).collect();
    let dp = DualParity::new(k, dual.stripe_len());
    let s = time_median(5, || {
        for _slot in 0..n {
            black_box(dp.encode_with(&refs, kcfg));
        }
    });
    v.insert(
        "encoding.dual_encode_GBps",
        gbps(n * k * dual.stripe_len() * 8, s),
    );

    let erased: Vec<usize> = (0..m).collect();
    let syndromes: Vec<(usize, Vec<f64>)> = (0..m)
        .map(|role| (role, buffer(layout.stripe_len(), 80 + role as u64)))
        .collect();
    let s = time_median(REPS, || {
        black_box(codec.solve(&erased, &syndromes, kcfg));
    });
    v.insert(
        "encoding.codec_solve_GBps",
        gbps(m * layout.stripe_len() * 8, s),
    );
}

/// `mps.reduce/allreduce/barrier/launch` on a world of the workload's
/// group size.
fn mps_probe(ctx: &LayerCtx, v: &mut Values) -> Result<(), Fault> {
    const ROUNDS: usize = 12;
    const BARRIERS: usize = 200;
    let n = ctx.group;
    let m = ctx.codec.parity_count();
    let stripe = GroupLayout::new_with_parity(n, m, ctx.a1_len + B2_WORDS).stripe_len();
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(n, 0)));
    let rl = Ranklist::round_robin(n, n);
    let outs = run_on_cluster(Arc::clone(&cluster), &rl, |c| {
        let w = c.world();
        let words: Vec<u64> = (0..stripe as u64).map(|i| i ^ w.rank() as u64).collect();
        w.barrier()?;
        let t = Instant::now();
        for i in 0..ROUNDS {
            black_box(w.reduce(ReduceOp::Xor, i % n, Payload::U64(words.clone()))?);
        }
        w.barrier()?;
        let reduce = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..ROUNDS {
            black_box(w.allreduce(ReduceOp::Xor, Payload::U64(words.clone()))?);
        }
        let allreduce = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..BARRIERS {
            w.barrier()?;
        }
        Ok((reduce, allreduce, t.elapsed().as_secs_f64()))
    })?;
    let (reduce, allreduce, barrier) = outs[0];
    v.insert("mps.reduce_GBps", gbps(ROUNDS * stripe * 8, reduce));
    v.insert("mps.allreduce_GBps", gbps(ROUNDS * stripe * 8, allreduce));
    v.insert("mps.barrier_us", barrier / BARRIERS as f64 * 1e6);
    let launch = time_median(21, || {
        let _ = black_box(run_on_cluster(Arc::clone(&cluster), &rl, |_| Ok(())));
    });
    v.insert("mps.launch_ms", launch * 1e3);
    Ok(())
}

/// `cluster.emit_*`: the bus with nobody listening, and with one
/// `Recorder`.
fn bus_probe(v: &mut Values) {
    const IDLE: usize = 1 << 20;
    const OBSERVED: usize = 1 << 16;
    let emit = |bus: &EventBus, n: usize| {
        let t = Instant::now();
        for i in 0..n {
            bus.emit(black_box(Event::BytesMoved {
                label: "probe",
                bytes: i as u64,
            }));
        }
        t.elapsed().as_secs_f64() / n as f64 * 1e9
    };
    let bus = EventBus::new();
    v.insert("cluster.emit_idle_ns", emit(&bus, IDLE));
    bus.subscribe(Arc::new(Recorder::new()) as Arc<dyn Observer>);
    v.insert("cluster.emit_observed_ns", emit(&bus, OBSERVED));
}

/// What one rank of the core probe measured.
struct CoreRank {
    encode_s: f64,
    rebuild_s: f64,
    scrub_s: f64,
    shm_bytes: usize,
    layout: GroupLayout,
    rebuilt_ok: bool,
    scrub_clean: bool,
}

/// `core.*` by direct call: the engine's encode and reconstruct, a
/// clean scrub, the memory accounting, and a CASE 2 recovery.
fn core_probe(ctx: &LayerCtx, seed: u64, v: &mut Values, checks: &mut Checks) -> Result<(), Fault> {
    let n = ctx.group;
    let m = ctx.codec.parity_count();
    let a1_len = ctx.a1_len;
    let codec_spec = ctx.codec;
    let lost: Vec<usize> = (0..m).collect();
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(n, 0)));
    let rl = Ranklist::round_robin(n, n);
    let outs = run_on_cluster(cluster, &rl, |c| {
        let w = c.world();
        let rank = w.rank();
        let cfg = CkptConfig::new("probe", Method::SelfCkpt, a1_len, 8).with_codec(codec_spec);
        let (mut ck, _) = Checkpointer::init(w.clone(), cfg);
        let ws = ck.workspace();
        fill(&ws, a1_len, seed, rank, 1);
        ck.make(&1u64.to_le_bytes())?;
        let layout = *ck.layout();
        let codec = codec_spec.resolve();
        let data = ws.read().as_f64().to_vec();

        let mut parity = Vec::new();
        let mut encode = Vec::new();
        for _ in 0..5 {
            w.barrier()?;
            let t = Instant::now();
            parity = encode_parity(&w, &layout, codec, &data, None)?;
            encode.push(t.elapsed().as_secs_f64());
        }

        let i_am_lost = lost.contains(&rank);
        let (d, p) = if i_am_lost {
            (
                kernels::zeroed(layout.padded_len()),
                kernels::zeroed(layout.parity_len()),
            )
        } else {
            (data.clone(), parity.clone())
        };
        let mut rebuild = Vec::new();
        let mut rebuilt_ok = true;
        for _ in 0..3 {
            w.barrier()?;
            let t = Instant::now();
            let out = reconstruct_multi(&w, &layout, codec, &lost, &d, &p)?;
            rebuild.push(t.elapsed().as_secs_f64());
            let same = |a: &[f64], b: &[f64]| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            };
            rebuilt_ok &= match out {
                Some((rd, rp)) => i_am_lost && same(&rd, &data) && same(&rp, &parity),
                None => !i_am_lost,
            };
        }

        let mut scrub = Vec::new();
        let mut scrub_clean = true;
        for _ in 0..3 {
            let t = Instant::now();
            let r = ck.scrub();
            scrub.push(t.elapsed().as_secs_f64());
            scrub_clean &= r.is_ok_and(|r| r.repaired.is_empty() && !r.header_repaired);
        }
        Ok(CoreRank {
            encode_s: median(&encode),
            rebuild_s: median(&rebuild),
            scrub_s: median(&scrub),
            shm_bytes: ck.shm_bytes(),
            layout,
            rebuilt_ok,
            scrub_clean,
        })
    })?;
    for (rank, o) in outs.iter().enumerate() {
        checks.check(o.rebuilt_ok, || {
            format!("probe rank {rank}: reconstruct_multi not bit-exact")
        });
        checks.check(o.scrub_clean, || {
            format!("probe rank {rank}: scrub repaired a clean group")
        });
    }
    let CoreRank {
        encode_s,
        rebuild_s,
        scrub_s,
        shm_bytes,
        layout,
        ..
    } = outs[0];
    let rate = gbps(n * layout.padded_len() * 8, encode_s);
    v.insert("core.encode_parity_GBps", rate);
    v.insert(
        "core.encode_of_codec",
        rate / v["encoding.codec_encode_GBps"],
    );
    v.insert(
        "core.reconstruct_GBps",
        gbps(
            m * (layout.padded_len() + layout.parity_len()) * 8,
            rebuild_s,
        ),
    );
    v.insert("core.scrub_ms", scrub_s * 1e3);
    v.insert("core.shm_bytes", shm_bytes as f64);
    v.insert(
        "core.avail_mem_frac",
        (a1_len * 8) as f64 / shm_bytes as f64,
    );

    // CASE 2: the first victim dies at FlushB, recovery rolls forward.
    let committed = RestoreSource::CheckpointAndChecksum;
    let mut g = Group::new(codec_spec, n, a1_len, seed, None);
    g.launch(true, committed, None, checks);
    if g.make_dying_mid_flush(checks) {
        let (op, _) = g.launch(false, RestoreSource::WorkspaceAndChecksum, None, checks);
        v.insert("core.recover_case2_ms", op.map_or(0.0, |t| t.ms));
    }
    Ok(())
}

/// `linalg.*`: the two kernels the HPL panel loop spends its time in,
/// at its shapes, on one thread.
fn linalg_probe(v: &mut Values) {
    let (m, n, k) = (1024, 1024, 32);
    let a = buffer_unit(m * k, 3);
    let b = buffer_unit(k * n, 4);
    let mut c = buffer_unit(m * n, 5);
    let s = time_median(9, || {
        dgemm(
            Trans::No,
            m,
            n,
            k,
            -1.0,
            &a,
            m,
            &b,
            k,
            1.0,
            black_box(&mut c),
            m,
        );
    });
    v.insert("linalg.dgemm_gflops", 2.0 * (m * n * k) as f64 / s / 1e9);

    let (rows, nb) = (crate::workloads::hpl_skt::N, crate::workloads::hpl_skt::NB);
    let panel = buffer_unit(rows * nb, 6);
    let mut work = panel.clone();
    let mut ipiv = vec![0usize; nb];
    let s = time_median(9, || {
        work.copy_from_slice(&panel);
        dgetrf(rows, nb, black_box(&mut work), rows, &mut ipiv, nb).expect("random panel");
    });
    let flops = (rows * nb * nb) as f64 - (nb * nb * nb) as f64 / 3.0;
    v.insert("linalg.dgetrf_gflops", flops / s / 1e9);
}

/// Values in `[-0.5, 0.5)`, so the BLAS probes stay finite.
fn buffer_unit(len: usize, salt: u64) -> Vec<f64> {
    let mut rng = skt_cluster::SplitMix64::new(salt);
    (0..len)
        .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        .collect()
}

/// Run every probe at the workload's geometry, each under its own span.
pub fn run_all(ctx: &LayerCtx, seed: u64, tracer: &Tracer, checks: &mut Checks) -> Values {
    let mut v = Values::new();
    let parent = tracer.open("probes", None);
    tracer.within("probe.kernels", || kernels_probe(&mut v));
    tracer.within("probe.codec", || codec_probe(ctx, &mut v));
    tracer.within("probe.bus", || bus_probe(&mut v));
    tracer.within("probe.linalg", || linalg_probe(&mut v));
    let r = tracer.within("probe.mps", || mps_probe(ctx, &mut v));
    checks.check(r.is_ok(), || format!("mps probe faulted: {r:?}"));
    let r = tracer.within("probe.core", || core_probe(ctx, seed, &mut v, checks));
    checks.check(r.is_ok(), || format!("core probe faulted: {r:?}"));
    tracer.close(parent);
    v
}
