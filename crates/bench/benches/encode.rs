//! Criterion micro-benchmarks of the encoding layer: XOR vs SUM parity
//! accumulation (the paper's "on some platforms XOR is much faster than
//! SUM", §2.2), serial vs multi-threaded kernel variants at checkpoint
//! sizes, GF(256) multiply-accumulate, and dual-parity encode.
//!
//! `CRITERION_JSON_OUT=BENCH_encode.json cargo bench --bench encode`
//! dumps the numbers (plus host parallelism) for the committed baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use skt_encoding::{kernels, Code, CodecSpec, DualParity, KernelConfig, SimdMode};
use std::hint::black_box;

fn bench_codes(c: &mut Criterion) {
    let mut g = c.benchmark_group("parity_accumulate");
    for size in [4096usize, 65_536, 1_048_576] {
        let data: Vec<f64> = (0..size).map(|i| (i as f64).sin()).collect();
        g.throughput(Throughput::Bytes((size * 8) as u64));
        for code in [Code::Xor, Code::Sum] {
            g.bench_with_input(BenchmarkId::new(code.name(), size), &data, |b, data| {
                let mut acc = code.zero(size);
                b.iter(|| code.accumulate(black_box(&mut acc), black_box(data)));
            });
        }
    }
    g.finish();
}

/// Serial vs multi-threaded kernels at realistic checkpoint sizes
/// (1 MiB – 256 MiB of `f64`). The `parallel` variant uses every host
/// core with the default cache block; on a single-core host the two
/// variants collapse to the same serial walk.
fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_accumulate");
    g.sample_size(10);
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let variants = [
        ("serial", KernelConfig::serial()),
        (
            "parallel",
            KernelConfig::new(host_threads, kernels::DEFAULT_CHUNK_LEN),
        ),
    ];
    for mib in [1usize, 16, 64, 256] {
        let len = mib << 17; // MiB of f64
        let data: Vec<f64> = (0..len).map(|i| (i as f64).sin()).collect();
        g.throughput(Throughput::Bytes((len * 8) as u64));
        for (variant, cfg) in variants {
            let mut acc = kernels::zeroed(len);
            g.bench_with_input(
                BenchmarkId::new(format!("XOR-{variant}"), format!("{mib}MiB")),
                &data,
                |b, data| {
                    b.iter(|| kernels::xor_accumulate(black_box(&mut acc), black_box(data), cfg));
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("SUM-{variant}"), format!("{mib}MiB")),
                &data,
                |b, data| {
                    b.iter(|| kernels::sum_accumulate(black_box(&mut acc), black_box(data), cfg));
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("COPY-{variant}"), format!("{mib}MiB")),
                &data,
                |b, data| {
                    b.iter(|| kernels::copy(black_box(&mut acc), black_box(data), cfg));
                },
            );
        }
    }
    g.finish();
}

fn bench_reconstruct(c: &mut Criterion) {
    let mut g = c.benchmark_group("parity_reconstruct");
    let size = 262_144usize;
    let n = 8usize;
    let stripes: Vec<Vec<f64>> = (0..n)
        .map(|r| (0..size).map(|i| ((r * size + i) as f64).cos()).collect())
        .collect();
    g.throughput(Throughput::Bytes((size * 8 * (n - 1)) as u64));
    for code in [Code::Xor, Code::Sum] {
        let parity = code.parity(size, &stripes);
        g.bench_function(BenchmarkId::new(code.name(), n), |b| {
            b.iter(|| {
                let survivors: Vec<&Vec<f64>> = stripes.iter().skip(1).collect();
                black_box(code.reconstruct(black_box(&parity), survivors))
            });
        });
    }
    g.finish();
}

fn bench_dual_parity(c: &mut Criterion) {
    let mut g = c.benchmark_group("dual_parity");
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let variants = [
        ("serial", KernelConfig::serial()),
        (
            "parallel",
            KernelConfig::new(host_threads, kernels::DEFAULT_CHUNK_LEN),
        ),
    ];
    let (k, len) = (8usize, 262_144usize);
    let data: Vec<Vec<f64>> = (0..k)
        .map(|r| (0..len).map(|i| ((r + i) as f64).sqrt()).collect())
        .collect();
    let refs: Vec<&[f64]> = data.iter().map(|s| s.as_slice()).collect();
    let dp = DualParity::new(k, len);
    let (p, q) = dp.encode(&refs);
    g.throughput(Throughput::Bytes((k * len * 8) as u64));
    for (variant, cfg) in variants {
        g.bench_function(BenchmarkId::new("encode_p_q", variant), |b| {
            b.iter(|| black_box(dp.encode_with(black_box(&refs), cfg)))
        });
        g.bench_function(BenchmarkId::new("recover_two", variant), |b| {
            b.iter(|| {
                let stripes: Vec<Option<&[f64]>> = data
                    .iter()
                    .enumerate()
                    .map(|(i, s)| if i < 2 { None } else { Some(s.as_slice()) })
                    .collect();
                black_box(dp.recover_with(&stripes, Some(&p), Some(&q), cfg))
            });
        });
    }
    g.finish();
}

/// The generalized RS codec at `m ∈ {1, 2, 3}`: the per-node encode
/// cost (one pre-scaled contribution per parity role, accumulated with
/// the BXOR wire op) and the `e = m` erasure solve (Cauchy submatrix
/// inversion plus the GF multiply-accumulate rebuild).
fn bench_rs_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("rs_codec");
    g.sample_size(10);
    let (k, len) = (8usize, 262_144usize);
    let data: Vec<Vec<f64>> = (0..k)
        .map(|r| (0..len).map(|i| ((r + i) as f64).sqrt()).collect())
        .collect();
    let cfg = KernelConfig::serial();
    for m in [1usize, 2, 3] {
        let codec = CodecSpec::rs(m).resolve();
        let encode = |cfg: KernelConfig| -> Vec<Vec<f64>> {
            let mut parities: Vec<Vec<f64>> = (0..m).map(|_| kernels::zeroed(len)).collect();
            for (pos, stripe) in data.iter().enumerate() {
                for (role, parity) in parities.iter_mut().enumerate() {
                    let contribution = codec.contrib(role, pos, stripe, cfg);
                    kernels::xor_accumulate(parity, &contribution, cfg);
                }
            }
            parities
        };
        g.throughput(Throughput::Bytes((k * len * 8) as u64));
        g.bench_function(BenchmarkId::new("encode", format!("m{m}")), |b| {
            b.iter(|| black_box(encode(cfg)))
        });
        // Worst-case recovery for this m: the first m stripes are lost,
        // so every parity role participates in the solve. Syndromes are
        // built once (that cost is the encode walk above); the bench
        // isolates the inversion + rebuild.
        let erased: Vec<usize> = (0..m).collect();
        let syndromes: Vec<(usize, Vec<f64>)> = (0..m)
            .map(|role| {
                let mut acc = kernels::zeroed(len);
                for &pos in &erased {
                    let contribution = codec
                        .contribs(&[role], pos, &data[pos], true, cfg)
                        .remove(0);
                    kernels::xor_accumulate(&mut acc, &contribution, cfg);
                }
                (role, acc)
            })
            .collect();
        g.throughput(Throughput::Bytes((m * len * 8) as u64));
        g.bench_function(BenchmarkId::new("solve", format!("m{m}")), |b| {
            b.iter(|| black_box(codec.solve(black_box(&erased), black_box(&syndromes), cfg)))
        });
    }
    g.finish();
}

/// The raw GF(2^8) multiply-accumulate kernel, scalar vs the best
/// accelerated path (`SKT_KERNEL_SIMD` forced both ways), at checkpoint
/// sizes — the per-byte work every RS parity role adds over plain XOR.
fn bench_gf_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("gf_kernel");
    g.sample_size(10);
    let modes = [
        ("scalar", SimdMode::ForceScalar),
        ("simd", SimdMode::ForceSimd),
    ];
    for mib in [1usize, 16, 64] {
        let len = mib << 17; // MiB of f64
        let x: Vec<f64> = (0..len).map(|i| (i as f64).sin()).collect();
        g.throughput(Throughput::Bytes((len * 8) as u64));
        for (name, mode) in modes {
            let cfg = KernelConfig::serial().with_simd(mode);
            let mut acc = kernels::zeroed(len);
            g.bench_with_input(
                BenchmarkId::new(format!("MAC-{name}"), format!("{mib}MiB")),
                &x,
                |b, x| {
                    b.iter(|| kernels::gf_mac(black_box(&mut acc), black_box(x), 0x8E, cfg));
                },
            );
            let mut buf = x.clone();
            g.bench_function(
                BenchmarkId::new(format!("SCALE-{name}"), format!("{mib}MiB")),
                |b| {
                    b.iter(|| kernels::gf_scale(black_box(&mut buf), 0x8E, cfg));
                },
            );
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_codes, bench_kernels, bench_reconstruct, bench_dual_parity,
        bench_rs_codec, bench_gf_kernels
}
criterion_main!(benches);
