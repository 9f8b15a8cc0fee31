//! Cache-blocked, multi-threaded accumulate / copy kernels.
//!
//! Every hot loop of the checkpoint path — the stripe reduces behind
//! `MPI_Reduce`, the GF(2^8) multiply / multiply-accumulate of the codec,
//! and the `work → B` flush and restore copies — is a streaming
//! element-wise pass over large `f64` buffers. This module gives them
//! one shared engine:
//!
//! * buffers are walked in [`KernelConfig::chunk_len`]-element blocks so
//!   a block stays cache-resident while an operator runs over it;
//! * when a buffer spans more than one block and the caller's share of
//!   [`KernelConfig::threads`] allows it, the blocks are dealt out as
//!   contiguous runs, one per worker: the *calling thread* works through
//!   the first and scoped helper threads spawned for the call (one fewer
//!   than the caller's share) through the others — a call whose share is
//!   one spawns nothing;
//! * the XOR operator works on 64-bit bit patterns in an 8-wide unrolled
//!   main loop with a scalar tail, so the compiler can keep it in vector
//!   registers.
//!
//! All operators are *element-wise* (no cross-element reassociation), so
//! the parallel result is bit-identical to the serial one for XOR / copy
//! and rounding-identical for SUM regardless of which worker ran which
//! block.
//!
//! # The worker budget
//!
//! [`KernelConfig::threads`] is a ceiling *shared by the rank threads
//! the process currently hosts*, not a per-call fan-out. The message
//! passing layer registers every rank thread with a [`RankThread`] guard;
//! a kernel call made on a rank thread may use
//! `max(1, threads / live_rank_threads)` workers, itself included
//! (4 ranks on 2 cores: serial, no spawn at all; 4 ranks on 64 cores:
//! 16 each). A call from any other thread — a bench, a probe, a test —
//! gets the whole ceiling. The one known conservatism: a rank parked in
//! a receive still counts as live, so its share idles until it returns.
//!
//! The process-wide default configuration comes from the environment:
//! `SKT_KERNEL_THREADS` (default: `available_parallelism`) and
//! `SKT_KERNEL_SIMD` (`0` forces the portable split-table GF and
//! slice-by-8 CRC bodies a CPU without AVX2 or SSE4.2 runs; `1`, like
//! unset, probes the CPU for the best accelerated ones — see
//! [`SimdMode`]); the cache block is always [`DEFAULT_CHUNK_LEN`], so
//! buffers of ≤ 512 KiB run on the caller alone — there is a single
//! block. A test that needs the threaded path on small buffers passes
//! an explicit [`KernelConfig::new`], e.g. `KernelConfig::new(8, 64)`.

use crate::simd::{self, GfBackend, SimdMode};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default cache block, in `f64` elements: 64 Ki elements = 512 KiB,
/// sized to fit a typical per-core L2 alongside the second operand.
pub const DEFAULT_CHUNK_LEN: usize = 1 << 16;

/// Execution policy for the kernels: how many threads may be used and
/// how large one cache block is (in elements).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelConfig {
    /// Ceiling on concurrently working kernel threads, callers included,
    /// shared by the live rank threads of the process (see the module
    /// docs). `1` = every call runs on its caller alone.
    pub threads: usize,
    /// Cache-block length in elements; also the granularity of the
    /// per-worker run split.
    pub chunk_len: usize,
    /// How the byte-level GF(2^8)/CRC kernels pick their implementation.
    pub simd: SimdMode,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self::global()
    }
}

impl KernelConfig {
    /// Explicit policy; both parameters are clamped to at least 1. The
    /// kernel dispatch defaults to [`SimdMode::Auto`]; use
    /// [`KernelConfig::with_simd`] to force a path.
    #[must_use]
    pub fn new(threads: usize, chunk_len: usize) -> Self {
        KernelConfig {
            threads: threads.max(1),
            chunk_len: chunk_len.max(1),
            simd: SimdMode::Auto,
        }
    }

    /// Single-threaded policy with the default cache block.
    #[must_use]
    pub const fn serial() -> Self {
        KernelConfig {
            threads: 1,
            chunk_len: DEFAULT_CHUNK_LEN,
            simd: SimdMode::Auto,
        }
    }

    /// The same policy with a forced/auto kernel dispatch mode.
    #[must_use]
    pub fn with_simd(self, simd: SimdMode) -> Self {
        KernelConfig { simd, ..self }
    }

    /// The process-wide policy: `SKT_KERNEL_THREADS` / `SKT_KERNEL_SIMD`
    /// when set, otherwise `available_parallelism` and
    /// [`SimdMode::Auto`], with the [`DEFAULT_CHUNK_LEN`] block, read
    /// once per process. `threads` is the process-wide ceiling, not the
    /// calling thread's share of it.
    #[must_use]
    pub fn global() -> Self {
        static GLOBAL: OnceLock<KernelConfig> = OnceLock::new();
        *GLOBAL.get_or_init(|| {
            let threads = std::env::var("SKT_KERNEL_THREADS")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
            let simd = std::env::var("SKT_KERNEL_SIMD")
                .map_or(SimdMode::Auto, |v| SimdMode::from_env_str(&v));
            KernelConfig::new(threads, DEFAULT_CHUNK_LEN).with_simd(simd)
        })
    }

    /// Workers a call made *on this thread* may use, the caller
    /// included: the whole ceiling off a rank thread, an equal share of
    /// it on one (see the module docs).
    #[must_use]
    pub(crate) fn workers(self) -> usize {
        if ON_RANK_THREAD.get() {
            // Relaxed: the count publishes no data, it only sizes a share.
            (self.threads / LIVE_RANK_THREADS.load(Ordering::Relaxed).max(1)).max(1)
        } else {
            self.threads
        }
    }

    /// Whether a buffer of `len` elements may run multi-threaded when
    /// called on this thread: more than one worker allowed *and* more
    /// than one block to hand out.
    #[must_use]
    pub fn is_parallel_for(self, len: usize) -> bool {
        self.workers() > 1 && len.div_ceil(self.chunk_len) > 1
    }
}

static LIVE_RANK_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ON_RANK_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as one of the process's rank threads for as
/// long as the guard lives: kernel calls made on it share
/// [`KernelConfig::threads`] with every other live rank thread. The
/// message-passing layer holds one per rank thread; dropping it (also on
/// unwind) returns the share.
pub struct RankThread {
    // the registration is this thread's: the guard must drop where it was made
    _not_send: PhantomData<*const ()>,
}

impl RankThread {
    /// Register the current thread.
    #[must_use = "the registration ends when the guard drops"]
    pub fn enter() -> Self {
        ON_RANK_THREAD.set(true);
        LIVE_RANK_THREADS.fetch_add(1, Ordering::Relaxed);
        RankThread {
            _not_send: PhantomData,
        }
    }
}

impl Drop for RankThread {
    fn drop(&mut self) {
        ON_RANK_THREAD.set(false);
        LIVE_RANK_THREADS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The shared driver: run `op` once on each of the `n_blocks` items of
/// `blocks`. With a worker budget above one the items are dealt out as
/// contiguous runs, one per worker: the caller takes the first and a
/// scoped helper thread each of the others, so disjoint `&mut` blocks
/// change threads by move. Runs, not a block-by-block cursor: workers
/// that first-touch a fresh destination side by side inside one 2 MiB
/// page-table span were measured ~2x slower than on halves of their own.
/// `op` must be order-independent (element-wise kernels are). A panic
/// inside `op` — on any worker — is re-raised in the caller with its
/// original payload once every worker has stopped.
pub(crate) fn for_each_block<I>(
    cfg: KernelConfig,
    n_blocks: usize,
    mut blocks: I,
    op: impl Fn(I::Item) + Sync,
) where
    I: Iterator,
    I::Item: Send,
{
    let workers = cfg.workers().min(n_blocks);
    if workers <= 1 {
        blocks.for_each(op);
        return;
    }
    let per_worker = n_blocks.div_ceil(workers);
    let mut runs = (0..workers).map(|_| blocks.by_ref().take(per_worker).collect::<Vec<_>>());
    let mine = runs.next().unwrap_or_default();
    let op = &op;
    std::thread::scope(|scope| {
        let helpers: Vec<_> = runs
            .map(|run| scope.spawn(move || run.into_iter().for_each(op)))
            .collect();
        mine.into_iter().for_each(op);
        for helper in helpers {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// Run `op` over matching cache blocks of equal-length `dst` / `src`.
/// `op` must be element-wise (block-boundary free).
fn par_zip<A, B>(cfg: KernelConfig, dst: &mut [A], src: &[B], op: impl Fn(&mut [A], &[B]) + Sync)
where
    A: Send,
    B: Sync,
{
    assert_eq!(dst.len(), src.len(), "kernel: length mismatch");
    let blocks = dst.chunks_mut(cfg.chunk_len).zip(src.chunks(cfg.chunk_len));
    for_each_block(cfg, blocks.len(), blocks, |(d, s)| op(d, s));
}

/// 8-wide unrolled XOR over `u64` words with a scalar tail.
fn xor_block_u64(acc: &mut [u64], x: &[u64]) {
    let mut a8 = acc.chunks_exact_mut(8);
    let mut x8 = x.chunks_exact(8);
    for (a, b) in (&mut a8).zip(&mut x8) {
        a[0] ^= b[0];
        a[1] ^= b[1];
        a[2] ^= b[2];
        a[3] ^= b[3];
        a[4] ^= b[4];
        a[5] ^= b[5];
        a[6] ^= b[6];
        a[7] ^= b[7];
    }
    for (a, b) in a8.into_remainder().iter_mut().zip(x8.remainder()) {
        *a ^= *b;
    }
}

/// 8-wide unrolled XOR over `f64` bit patterns with a scalar tail.
fn xor_block_f64(acc: &mut [f64], x: &[f64]) {
    let mut a8 = acc.chunks_exact_mut(8);
    let mut x8 = x.chunks_exact(8);
    for (a, b) in (&mut a8).zip(&mut x8) {
        a[0] = f64::from_bits(a[0].to_bits() ^ b[0].to_bits());
        a[1] = f64::from_bits(a[1].to_bits() ^ b[1].to_bits());
        a[2] = f64::from_bits(a[2].to_bits() ^ b[2].to_bits());
        a[3] = f64::from_bits(a[3].to_bits() ^ b[3].to_bits());
        a[4] = f64::from_bits(a[4].to_bits() ^ b[4].to_bits());
        a[5] = f64::from_bits(a[5].to_bits() ^ b[5].to_bits());
        a[6] = f64::from_bits(a[6].to_bits() ^ b[6].to_bits());
        a[7] = f64::from_bits(a[7].to_bits() ^ b[7].to_bits());
    }
    for (a, b) in a8.into_remainder().iter_mut().zip(x8.remainder()) {
        *a = f64::from_bits(a.to_bits() ^ b.to_bits());
    }
}

/// `acc ^= x` over `f64` bit patterns (the XOR code's accumulate and
/// the `MPI_BXOR` reduce on `F64` payloads).
pub fn xor_accumulate(acc: &mut [f64], x: &[f64], cfg: KernelConfig) {
    par_zip(cfg, acc, x, xor_block_f64);
}

/// `acc ^= x` over raw words (the `MPI_BXOR` reduce on `U64` payloads).
pub fn xor_accumulate_u64(acc: &mut [u64], x: &[u64], cfg: KernelConfig) {
    par_zip(cfg, acc, x, xor_block_u64);
}

/// `acc += x` element-wise (the `MPI_SUM` reduce / SUM-code accumulate).
pub fn sum_accumulate(acc: &mut [f64], x: &[f64], cfg: KernelConfig) {
    par_zip(cfg, acc, x, |a, b| {
        for (p, q) in a.iter_mut().zip(b) {
            *p += *q;
        }
    });
}

/// `acc -= x` element-wise (the SUM code's recovery direction).
pub fn sub_accumulate(acc: &mut [f64], x: &[f64], cfg: KernelConfig) {
    par_zip(cfg, acc, x, |a, b| {
        for (p, q) in a.iter_mut().zip(b) {
            *p -= *q;
        }
    });
}

/// `dst := src` (the checkpoint flush copies).
pub fn copy(dst: &mut [f64], src: &[f64], cfg: KernelConfig) {
    par_zip(cfg, dst, src, |d, s| d.copy_from_slice(s));
}

/// A fresh all-zero buffer (the codes' identity element), for callers
/// outside a cluster: tests, probes and the codecs' allocating forms.
/// It is `vec![0.0; len]`, i.e. `calloc`, and that does not make it
/// cheap. In the steady state of a checkpoint loop glibc has trimmed or
/// unmapped the last released buffer of this size, so `calloc` returns
/// fresh pages, each faulted in on first touch: 6.0 ms per 8 MiB on one
/// thread and 14.4 ms with four rank threads faulting at once (2-vCPU
/// host), against 0.66 ms to rewrite 8 MiB that is already resident.
/// Inside a cluster, stripes come from its `BufferPool` instead.
#[must_use]
pub fn zeroed(len: usize) -> Vec<f64> {
    vec![0.0; len]
}

/// The IEEE-754 bit patterns of `src`. Not on the checkpoint path: the
/// BXOR reduce works on `f64` buffers directly.
#[must_use]
pub fn bits_of(src: &[f64], cfg: KernelConfig) -> Vec<u64> {
    let mut out = vec![0u64; src.len()];
    par_zip(cfg, &mut out, src, |d, s| {
        for (p, q) in d.iter_mut().zip(s) {
            *p = q.to_bits();
        }
    });
    out
}

/// The `f64` values of bit patterns `src` (inverse of [`bits_of`]).
#[must_use]
pub fn floats_of(src: &[u64], cfg: KernelConfig) -> Vec<f64> {
    let mut out = vec![0.0f64; src.len()];
    par_zip(cfg, &mut out, src, |d, s| {
        for (p, q) in d.iter_mut().zip(s) {
            *p = f64::from_bits(*q);
        }
    });
    out
}

/// Run `op(destination block, source block, coefficient)` for every
/// `(destination, coefficient)` of `dsts` over matching cache blocks of
/// `src`, each source block read once while every destination takes its
/// turn. `op` must be element-wise (block-boundary free).
fn par_zip_each(
    cfg: KernelConfig,
    dsts: Vec<(&mut [f64], u8)>,
    src: &[f64],
    op: impl Fn(&mut [f64], &[f64], u8) + Sync,
) {
    if dsts.is_empty() {
        return;
    }
    let mut dsts: Vec<(std::slice::ChunksMut<'_, f64>, u8)> = dsts
        .into_iter()
        .map(|(dst, c)| {
            assert_eq!(dst.len(), src.len(), "kernel: length mismatch");
            (dst.chunks_mut(cfg.chunk_len), c)
        })
        .collect();
    let blocks = src.chunks(cfg.chunk_len);
    let n_blocks = blocks.len();
    let blocks = blocks.map(move |s| {
        let ds: Vec<(&mut [f64], u8)> = dsts
            .iter_mut()
            .map(|(blocks, c)| (blocks.next().expect("as long as the source"), *c))
            .collect();
        (s, ds)
    });
    for_each_block(cfg, n_blocks, blocks, |(s, ds)| {
        for (d, c) in ds {
            op(d, s, c);
        }
    });
}

/// Byte-wise GF(256) scale of the byte view of `src` into buffers:
/// `dsts[i] := coeffs[i]·src` for every `i` (the codec's per-role
/// contributions of one data stripe, and the `D := c·D` steps of the
/// parity solves), all scaled products from **one** cache-blocked read
/// of `src` — each block is scaled into every destination while it is
/// cache-hot. Every destination element is overwritten (a coefficient
/// of 1 copies, 0 writes zeros), so the destinations' old contents never
/// matter: they can be recycled buffers. GF(2^8) acts on every byte
/// independently, so the operation is element-wise, endian-agnostic, and
/// bit-identical under any chunk/thread partition and any [`SimdMode`]
/// backend.
pub fn gf_scale_into(dsts: &mut [&mut [f64]], src: &[f64], coeffs: &[u8], cfg: KernelConfig) {
    assert_eq!(dsts.len(), coeffs.len(), "one coefficient per destination");
    let scaled = dsts
        .iter_mut()
        .zip(coeffs)
        .map(|(dst, &c)| (&mut **dst, c))
        .collect();
    let backend = GfBackend::select(cfg.simd);
    par_zip_each(cfg, scaled, src, |d, s, c| {
        simd::gf_mul_bytes(simd::f64_bytes_mut(d), simd::f64_bytes(s), c, backend);
    });
}

/// Byte-wise GF(256) multiply-accumulate over byte views: `acc ^= c·x`
/// (the parity accumulates of the RS/dual codes). Element-wise per byte,
/// so bit-identical under any partition and backend (see
/// [`gf_scale_into`]).
pub fn gf_mac(acc: &mut [f64], x: &[f64], c: u8, cfg: KernelConfig) {
    if c == 0 {
        return;
    }
    let backend = GfBackend::select(cfg.simd);
    par_zip(cfg, acc, x, move |a, b| {
        simd::gf_mac_bytes(simd::f64_bytes_mut(a), simd::f64_bytes(b), c, backend);
    });
}

/// Multi-accumulator [`gf_mac`]: `accs[i] ^= coeffs[i]·x` for every
/// `i`, all from **one** cache-blocked read of `x` — each block is
/// folded into every accumulator while it is cache-hot (the codec's
/// fold of one data stripe into the in-flight parity accumulators of its
/// slot). A coefficient of 1 is a plain XOR, 0 a no-op. Bit-identical to
/// one [`gf_mac`] per accumulator under any partition and backend.
pub fn gf_mac_multi(accs: &mut [&mut [f64]], x: &[f64], coeffs: &[u8], cfg: KernelConfig) {
    assert_eq!(accs.len(), coeffs.len(), "one coefficient per accumulator");
    let live = accs
        .iter_mut()
        .zip(coeffs)
        .filter(|(_, &c)| c != 0)
        .map(|(acc, &c)| (&mut **acc, c))
        .collect();
    let backend = GfBackend::select(cfg.simd);
    par_zip_each(cfg, live, x, |a, b, c| {
        if c == 1 {
            xor_block_f64(a, b);
        } else {
            simd::gf_mac_bytes(simd::f64_bytes_mut(a), simd::f64_bytes(b), c, backend);
        }
    });
}

/// `dst := -src` element-wise (the SUM code's cancel-by-reduce trick).
pub fn negate_into(dst: &mut [f64], src: &[f64], cfg: KernelConfig) {
    par_zip(cfg, dst, src, |d, s| {
        for (p, q) in d.iter_mut().zip(s) {
            *p = -q;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256;
    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn data(len: usize, salt: u64) -> Vec<f64> {
        // Deterministic mixed-magnitude values incl. negatives and zeros.
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt);
                f64::from_bits(x >> 2) // exponent < 0x7FF: finite values
            })
            .collect()
    }

    fn configs() -> Vec<KernelConfig> {
        vec![
            KernelConfig::serial(),
            KernelConfig::new(1, 7),
            KernelConfig::new(2, 13),
            KernelConfig::new(4, 64),
            KernelConfig::new(8, 1),
            KernelConfig::new(3, 1 << 20), // chunk larger than any test buffer
            KernelConfig::serial().with_simd(SimdMode::ForceScalar),
        ]
    }

    #[test]
    fn xor_matches_scalar_reference_for_every_policy() {
        for len in [0usize, 1, 7, 8, 9, 1023, 4096, 10_000] {
            let base = data(len, 1);
            let x = data(len, 2);
            let mut reference = base.clone();
            for (a, b) in reference.iter_mut().zip(&x) {
                *a = f64::from_bits(a.to_bits() ^ b.to_bits());
            }
            for cfg in configs() {
                let mut acc = base.clone();
                xor_accumulate(&mut acc, &x, cfg);
                for (i, (a, r)) in acc.iter().zip(&reference).enumerate() {
                    assert_eq!(a.to_bits(), r.to_bits(), "len {len} cfg {cfg:?} idx {i}");
                }
            }
        }
    }

    #[test]
    fn sum_is_bit_identical_across_policies() {
        // Element-wise add has no reassociation: every policy must agree
        // bit-for-bit, not just within rounding.
        let len = 5000;
        let base = data(len, 3);
        let x = data(len, 4);
        let mut reference = base.clone();
        for (a, b) in reference.iter_mut().zip(&x) {
            *a += *b;
        }
        for cfg in configs() {
            let mut acc = base.clone();
            sum_accumulate(&mut acc, &x, cfg);
            assert!(
                acc.iter()
                    .zip(&reference)
                    .all(|(a, r)| a.to_bits() == r.to_bits()),
                "cfg {cfg:?}"
            );
        }
    }

    #[test]
    fn sub_then_sum_round_trips() {
        let len = 777;
        let base = data(len, 5);
        let x = data(len, 6);
        let cfg = KernelConfig::new(4, 100);
        let mut acc = base.clone();
        sum_accumulate(&mut acc, &x, cfg);
        sub_accumulate(&mut acc, &x, cfg);
        // +x then -x is exact when no overflow to inf occurs... it is not
        // in general; compare against the serial walk instead.
        let mut reference = base;
        sum_accumulate(&mut reference, &x, KernelConfig::serial());
        sub_accumulate(&mut reference, &x, KernelConfig::serial());
        assert!(acc
            .iter()
            .zip(&reference)
            .all(|(a, r)| a.to_bits() == r.to_bits()));
    }

    #[test]
    fn copy_and_u64_xor_match_serial() {
        let len = 3001;
        let src = data(len, 7);
        for cfg in configs() {
            let mut dst = vec![0.0; len];
            copy(&mut dst, &src, cfg);
            assert!(dst
                .iter()
                .zip(&src)
                .all(|(a, b)| a.to_bits() == b.to_bits()));

            let mut w: Vec<u64> = src.iter().map(|v| v.to_bits()).collect();
            let key: Vec<u64> = data(len, 8).iter().map(|v| v.to_bits()).collect();
            xor_accumulate_u64(&mut w, &key, cfg);
            xor_accumulate_u64(&mut w, &key, cfg);
            assert!(
                w.iter().zip(&src).all(|(a, b)| *a == b.to_bits()),
                "self-inverse"
            );
        }
    }

    #[test]
    fn conversions_round_trip() {
        let src = data(999, 9);
        for cfg in configs() {
            let bits = bits_of(&src, cfg);
            let back = floats_of(&bits, cfg);
            assert!(back
                .iter()
                .zip(&src)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            let mut neg = back;
            negate_into(&mut neg, &src, cfg);
            assert!(neg
                .iter()
                .zip(&src)
                .all(|(a, b)| *a == -*b || (a.is_nan() && b.is_nan())));
        }
    }

    #[test]
    fn parallel_decision_rules() {
        assert!(!KernelConfig::serial().is_parallel_for(usize::MAX));
        let cfg = KernelConfig::new(4, 100);
        assert!(!cfg.is_parallel_for(0));
        assert!(!cfg.is_parallel_for(100), "single block stays serial");
        assert!(cfg.is_parallel_for(101));
        // clamping
        assert_eq!(KernelConfig::new(0, 0), KernelConfig::new(1, 1));
    }

    #[test]
    fn gf_kernels_match_byte_reference_for_every_policy() {
        let len = 2049;
        let base = data(len, 11);
        let x = data(len, 12);
        for c in [0u8, 1, 2, 29, 255] {
            // byte-level reference via the scalar gf256 ops
            let mut scale_ref: Vec<u8> = base.iter().flat_map(|v| v.to_le_bytes()).collect();
            gf256::scale_slice(&mut scale_ref, c);
            let mut mac_ref: Vec<u8> = base.iter().flat_map(|v| v.to_le_bytes()).collect();
            let xb: Vec<u8> = x.iter().flat_map(|v| v.to_le_bytes()).collect();
            gf256::mac_slice(&mut mac_ref, &xb, c);
            for cfg in configs() {
                let mut scaled = x.clone();
                gf_scale_into(&mut [&mut scaled], &base, &[c], cfg);
                let got: Vec<u8> = scaled.iter().flat_map(|v| v.to_le_bytes()).collect();
                assert_eq!(got, scale_ref, "scale c={c} cfg {cfg:?}");

                let mut acc = base.clone();
                gf_mac(&mut acc, &x, c, cfg);
                let got: Vec<u8> = acc.iter().flat_map(|v| v.to_le_bytes()).collect();
                assert_eq!(got, mac_ref, "mac c={c} cfg {cfg:?}");
            }
        }
    }

    /// Message of a caught panic payload.
    fn panic_message(p: Box<dyn Any + Send>) -> String {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn a_panicking_block_surfaces_in_the_caller_with_its_message() {
        // Once with the panic forced onto the helper, once onto the
        // caller: the barrier makes both take part in the two-block call.
        let caller = std::thread::current().id();
        for on_helper in [true, false] {
            let meet = std::sync::Barrier::new(2);
            let mut buf = [0u64; 2];
            let caught = catch_unwind(AssertUnwindSafe(|| {
                for_each_block(KernelConfig::new(2, 1), 2, buf.chunks_mut(1), |_| {
                    meet.wait();
                    let helper = std::thread::current().id() != caller;
                    assert!(helper != on_helper, "kernel: length mismatch in block");
                });
            }));
            let msg = panic_message(caught.expect_err("the block panic must reach the caller"));
            assert!(msg.contains("kernel: length mismatch in block"), "{msg}");
            // nothing is left behind: the next call gets the right answer
            let x = data(9 * 13, 21);
            let mut acc = data(9 * 13, 22);
            let mut want = acc.clone();
            xor_accumulate(&mut want, &x, KernelConfig::serial());
            xor_accumulate(&mut acc, &x, KernelConfig::new(4, 13));
            assert!(acc
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn concurrent_callers_of_mixed_lengths_match_the_serial_result() {
        let chunk = 32;
        let lens = [0, 1, chunk - 1, chunk, chunk + 1, 9 * chunk];
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for caller in 0..8u64 {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for call in 0..200u64 {
                        let len = lens[((caller + call) % 6) as usize];
                        let cfg = KernelConfig::new(2 + (call % 3) as usize, chunk);
                        let x = data(len, caller * 1000 + call);
                        let base = data(len, call);
                        let mut want = base.clone();
                        let mut got = base;
                        match call % 3 {
                            0 => {
                                xor_accumulate(&mut want, &x, KernelConfig::serial());
                                xor_accumulate(&mut got, &x, cfg);
                            }
                            1 => {
                                gf_mac(&mut want, &x, 0x53, KernelConfig::serial());
                                gf_mac(&mut got, &x, 0x53, cfg);
                            }
                            _ => {
                                copy(&mut want, &x, KernelConfig::serial());
                                copy(&mut got, &x, cfg);
                            }
                        }
                        assert!(
                            got.iter()
                                .zip(&want)
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "caller {caller} call {call} len {len}"
                        );
                        assert_eq!(
                            crate::crc32c_f64(&got, cfg),
                            crate::crc32c_f64(&want, KernelConfig::serial())
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn rank_threads_share_the_ceiling() {
        let cfg = KernelConfig::new(8, 4);
        assert_eq!(cfg.workers(), 8, "off a rank thread: the whole ceiling");
        // Three rank threads live at once (the barrier holds every guard
        // until all have looked): 8 / 3 = 2 workers each. No other test
        // of this crate registers rank threads.
        let all_in = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _share = RankThread::enter();
                    all_in.wait();
                    assert_eq!(cfg.workers(), 2);
                    assert_eq!(KernelConfig::new(2, 4).workers(), 1, "never below one");
                    assert!(!KernelConfig::new(2, 4).is_parallel_for(1000));
                    all_in.wait();
                });
            }
        });
        assert_eq!(
            LIVE_RANK_THREADS.load(Ordering::Relaxed),
            0,
            "guards returned"
        );
        assert_eq!(cfg.workers(), 8);
    }

    #[test]
    fn scaled_copies_match_copy_then_scale_for_every_policy() {
        let coeffs = [0u8, 1, 2, 0x53, 0xff];
        for len in [0usize, 1, 63, 64, 65, 777] {
            let src = data(len, 31);
            for cfg in configs() {
                // stale destinations: every element must be overwritten
                let mut got: Vec<Vec<f64>> = coeffs.iter().map(|_| vec![f64::NAN; len]).collect();
                let mut dsts: Vec<&mut [f64]> = got.iter_mut().map(Vec::as_mut_slice).collect();
                gf_scale_into(&mut dsts, &src, &coeffs, cfg);
                for (out, &c) in got.iter().zip(&coeffs) {
                    let mut want: Vec<u8> = src.iter().flat_map(|v| v.to_le_bytes()).collect();
                    gf256::scale_slice(&mut want, c);
                    let out_bytes: Vec<u8> = out.iter().flat_map(|v| v.to_le_bytes()).collect();
                    assert_eq!(out_bytes, want, "len {len} c {c} cfg {cfg:?}");
                }
            }
        }
        gf_scale_into(&mut [], &data(5, 1), &[], KernelConfig::serial());
    }

    #[test]
    fn zeroed_is_identity_for_xor_and_sum() {
        let z = zeroed(33);
        assert!(z.iter().all(|v| v.to_bits() == 0));
        let src = data(33, 10);
        let mut acc = src.clone();
        xor_accumulate(&mut acc, &z, KernelConfig::serial());
        assert_eq!(acc, src);
    }
}
