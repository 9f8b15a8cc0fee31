//! Runtime-dispatched byte-level backends for the GF(2^8) and CRC-32C
//! hot loops.
//!
//! The erasure codecs spend almost all of their time in two byte
//! streams — `dst[i] (= | ^=) c·src[i]` over GF(2^8) for the
//! Reed–Solomon parities ([`gf_mul_bytes`] / [`gf_mac_bytes`]), and
//! the CRC-32C walk of the flush witnesses and the scrub patrol.
//! Both have well-known data-parallel formulations, so each has one
//! portable body that needs no CPU feature and one accelerated body:
//!
//! * **GF(2^8)**: the 4-bit split-table trick — `c·b` for any byte `b`
//!   is `LO[b & 0xF] ⊕ HI[b >> 4]` with two 16-entry tables, which is
//!   exactly one AVX2 `vpshufb` pair per 32 bytes. The portable body runs
//!   the same split-table math byte-wise, so both compute the identical
//!   function. Each is generic over the store rule (`const XOR: bool`:
//!   overwrite the destination with the product, or fold the product
//!   into it), and the AVX2 body hands its sub-vector tail to the
//!   portable body of the same rule. The reference they are tested
//!   against is the log/exp arithmetic of [`gf256`].
//! * **CRC-32C**: the byte-at-a-time table walk (the reference),
//!   slice-by-8 (eight interleaved tables, one 64-bit load
//!   per step) and the SSE4.2 `crc32` instruction, which implements this
//!   exact (Castagnoli, reflected) polynomial in hardware — issued as
//!   three independent chains over consecutive blocks, recombined with
//!   the exact zero-shift operator, because one dependent chain runs the
//!   unit at a third of its throughput.
//!
//! Dispatch is *data-independent*: a backend is chosen once per kernel
//! call from [`SimdMode`] (carried by `KernelConfig`, defaulted from the
//! `SKT_KERNEL_SIMD` environment variable) plus one-time CPU feature
//! detection. [`SimdMode::Portable`] selects the portable bodies, what
//! a CPU without AVX2 or SSE4.2 runs. All backends are bit-for-bit
//! equivalent — the equivalence proptests drive every available backend
//! against the reference over arbitrary lengths, values and
//! (mis)alignments, and CI runs the whole suite once per setting.

use crate::gf256;

/// How the byte-level kernels pick their implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// Probe the CPU once and use the fastest available backend.
    #[default]
    Auto,
    /// Run the portable bodies — split-table GF, slice-by-8 CRC — that
    /// a CPU without the vector features runs (`SKT_KERNEL_SIMD=0`).
    Portable,
}

impl SimdMode {
    /// Parse the `SKT_KERNEL_SIMD` convention: `0`/`off`/`false` forces
    /// the portable bodies, anything else (`1`/`on` included, or unset) is
    /// [`SimdMode::Auto`] — already the best accelerated path: AVX2 /
    /// hardware CRC where the CPU has them, the portable bodies
    /// otherwise.
    #[must_use]
    pub fn from_env_str(v: &str) -> SimdMode {
        match v.trim() {
            "0" | "off" | "false" => SimdMode::Portable,
            _ => SimdMode::Auto,
        }
    }
}

/// A GF(2^8) multiply / multiply-accumulate implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GfBackend {
    /// 4-bit split tables (two 16-entry lookups + XOR per byte); no CPU
    /// features needed.
    Portable,
    /// AVX2 `vpshufb`: 32 bytes per shuffle pair.
    Avx2,
}

impl GfBackend {
    /// The backend [`SimdMode`] resolves to on this machine.
    #[must_use]
    pub fn select(mode: SimdMode) -> GfBackend {
        match mode {
            SimdMode::Portable => GfBackend::Portable,
            SimdMode::Auto => GfBackend::best_accelerated(),
        }
    }

    /// The fastest backend the CPU supports: AVX2, else the portable
    /// split-table.
    #[must_use]
    pub fn best_accelerated() -> GfBackend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return GfBackend::Avx2;
            }
        }
        GfBackend::Portable
    }

    /// Every backend runnable on this machine (the equivalence tests
    /// sweep all of them against the [`gf256`] reference).
    #[must_use]
    pub fn available() -> Vec<GfBackend> {
        let mut v = vec![GfBackend::Portable];
        if GfBackend::best_accelerated() == GfBackend::Avx2 {
            v.push(GfBackend::Avx2);
        }
        v
    }
}

/// A CRC-32C implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrcBackend {
    /// Byte-at-a-time table walk — the reference.
    Table,
    /// Slice-by-8: one 64-bit load and eight interleaved table lookups
    /// per step; no CPU features needed.
    SliceBy8,
    /// SSE4.2 `crc32` instruction (the polynomial is the instruction's).
    Hardware,
}

impl CrcBackend {
    /// The backend [`SimdMode`] resolves to on this machine.
    #[must_use]
    pub fn select(mode: SimdMode) -> CrcBackend {
        match mode {
            SimdMode::Portable => CrcBackend::SliceBy8,
            SimdMode::Auto => CrcBackend::best_accelerated(),
        }
    }

    /// The fastest accelerated CRC backend the CPU supports.
    #[must_use]
    pub fn best_accelerated() -> CrcBackend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sse4.2") {
                return CrcBackend::Hardware;
            }
        }
        CrcBackend::SliceBy8
    }

    /// Every CRC backend runnable on this machine.
    #[must_use]
    pub fn available() -> Vec<CrcBackend> {
        let mut v = vec![CrcBackend::Table, CrcBackend::SliceBy8];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sse4.2") {
                v.push(CrcBackend::Hardware);
            }
        }
        v
    }
}

/// Little-endian-order byte view of an `f64` buffer. GF(2^8) operates
/// on every byte independently, so the view is endian-agnostic for the
/// GF kernels; the CRC walk additionally needs true LE order and guards
/// itself with `cfg!(target_endian)`.
#[must_use]
pub fn f64_bytes(buf: &[f64]) -> &[u8] {
    // Safety: f64 has no padding and every byte pattern is a valid u8;
    // alignment only decreases.
    unsafe { std::slice::from_raw_parts(buf.as_ptr().cast(), std::mem::size_of_val(buf)) }
}

/// Mutable byte view of an `f64` buffer (see [`f64_bytes`]).
#[must_use]
pub fn f64_bytes_mut(buf: &mut [f64]) -> &mut [u8] {
    // Safety: as in `f64_bytes`; every byte pattern is also a valid f64.
    unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast(), std::mem::size_of_val(buf)) }
}

/// The two 16-entry split tables of `c`: `LO[i] = c·i`,
/// `HI[i] = c·(i << 4)`, so `c·b = LO[b & 0xF] ⊕ HI[b >> 4]` by the
/// distributive law over the nibble decomposition `b = hi·16 ⊕ lo`.
#[must_use]
pub fn nibble_tables(c: u8) -> ([u8; 16], [u8; 16]) {
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    for i in 0..16u8 {
        lo[i as usize] = gf256::mul(c, i);
        hi[i as usize] = gf256::mul(c, i << 4);
    }
    (lo, hi)
}

/// The split-table body, byte-wise — a backend of its own and the tail
/// of the AVX2 body. Every GF body is generic over the *store rule*:
/// `XOR = false` stores `dst[i] = c·src[i]`, `XOR = true` folds
/// `dst[i] ^= c·src[i]`.
fn gf_portable<const XOR: bool>(dst: &mut [u8], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) {
    for (d, s) in dst.iter_mut().zip(src) {
        let p = lo[(*s & 0x0F) as usize] ^ hi[(*s >> 4) as usize];
        *d = if XOR { *d ^ p } else { p };
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::nibble_tables;
    use crate::crc::{gf2_matrix_times, zero_shift};
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gf_avx2<const XOR: bool>(dst: &mut [u8], src: &[u8], c: u8) {
        let (lo, hi) = nibble_tables(c);
        let tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
        let thi = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let mut d32 = dst.chunks_exact_mut(32);
        let mut s32 = src.chunks_exact(32);
        for (d, s) in (&mut d32).zip(&mut s32) {
            let v = _mm256_loadu_si256(s.as_ptr().cast());
            let ln = _mm256_and_si256(v, mask);
            let hn = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
            let mut r =
                _mm256_xor_si256(_mm256_shuffle_epi8(tlo, ln), _mm256_shuffle_epi8(thi, hn));
            if XOR {
                r = _mm256_xor_si256(r, _mm256_loadu_si256(d.as_ptr().cast()));
            }
            _mm256_storeu_si256(d.as_mut_ptr().cast(), r);
        }
        super::gf_portable::<XOR>(d32.into_remainder(), s32.remainder(), &lo, &hi);
    }

    /// [`zero_shift`] in byte-indexed form: table `k`, entry `b` is the
    /// image of `b << 8k`, so advancing a state is four lookups.
    type ShiftTable = [[u32; 256]; 4];

    /// Block lengths in bytes of the interleaved walk, longest first.
    const STREAM_BLOCKS: [usize; 2] = [8192, 256];

    /// Per [`STREAM_BLOCKS`] entry, the operator that carries a CRC state
    /// across one such block of zeros. Built once, on first use.
    fn stream_shifts() -> &'static [ShiftTable; 2] {
        static SHIFTS: OnceLock<[ShiftTable; 2]> = OnceLock::new();
        SHIFTS.get_or_init(|| {
            STREAM_BLOCKS.map(|block| {
                let shift = zero_shift(block as u64);
                let bytewise =
                    |k| std::array::from_fn(|b| gf2_matrix_times(&shift, (b as u32) << (8 * k)));
                std::array::from_fn(bytewise)
            })
        })
    }

    fn shift_by(t: &ShiftTable, crc: u64) -> u64 {
        let [b0, b1, b2, b3] = (crc as u32).to_le_bytes();
        u64::from(t[0][b0 as usize] ^ t[1][b1 as usize] ^ t[2][b2 as usize] ^ t[3][b3 as usize])
    }

    fn le64(ch: &[u8]) -> u64 {
        u64::from_le_bytes(ch.try_into().expect("an 8-byte chunk"))
    }

    /// One dependent `crc32` chain retires 8 bytes per 3-cycle latency, a
    /// third of what the unit sustains. So while three blocks remain, run
    /// three chains over three consecutive blocks — the first continues
    /// the in-flight state, the other two start from 0 — and recombine
    /// exactly: a CRC state is linear in (state, data), so the state
    /// after `A ‖ B` is the state after `A` advanced through `|B|` zero
    /// bytes, xor the from-zero state of `B`.
    ///
    /// # Safety
    /// The CPU must support SSE4.2.
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn crc32c_hw(crc: u32, mut bytes: &[u8]) -> u32 {
        let mut c = u64::from(crc);
        for (block, shift) in STREAM_BLOCKS.into_iter().zip(stream_shifts()) {
            while bytes.len() >= 3 * block {
                let (s0, rest) = bytes.split_at(block);
                let (s1, rest) = rest.split_at(block);
                let (s2, rest) = rest.split_at(block);
                let (mut c1, mut c2) = (0, 0);
                let words = s0.chunks_exact(8).zip(s1.chunks_exact(8));
                for ((w0, w1), w2) in words.zip(s2.chunks_exact(8)) {
                    c = _mm_crc32_u64(c, le64(w0));
                    c1 = _mm_crc32_u64(c1, le64(w1));
                    c2 = _mm_crc32_u64(c2, le64(w2));
                }
                c = shift_by(shift, shift_by(shift, c) ^ c1) ^ c2;
                bytes = rest;
            }
        }
        let mut chunks = bytes.chunks_exact(8);
        for ch in &mut chunks {
            c = _mm_crc32_u64(c, le64(ch));
        }
        let mut c = c as u32;
        for &b in chunks.remainder() {
            c = _mm_crc32_u8(c, b);
        }
        c
    }
}

/// The one dispatcher: `dst (= | ^=) c·src` on the chosen backend.
fn gf_apply<const XOR: bool>(dst: &mut [u8], src: &[u8], c: u8, backend: GfBackend) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // Safety: `select`/`available` only surface this backend after
        // `is_x86_feature_detected!` confirmed the feature.
        GfBackend::Avx2 => unsafe { x86::gf_avx2::<XOR>(dst, src, c) },
        // `Portable` — and `Avx2` named off x86-64
        _ => {
            let (lo, hi) = nibble_tables(c);
            gf_portable::<XOR>(dst, src, &lo, &hi);
        }
    }
}

/// `dst[i] := c · src[i]` over GF(2^8), on the chosen backend (`c = 1`
/// is a copy, `c = 0` a clear).
pub fn gf_mul_bytes(dst: &mut [u8], src: &[u8], c: u8, backend: GfBackend) {
    assert_eq!(dst.len(), src.len(), "gf_mul_bytes: length mismatch");
    match c {
        0 => dst.fill(0),
        1 => dst.copy_from_slice(src),
        _ => gf_apply::<false>(dst, src, c, backend),
    }
}

/// `acc[i] ^= c · x[i]` over GF(2^8), on the chosen backend.
pub fn gf_mac_bytes(acc: &mut [u8], x: &[u8], c: u8, backend: GfBackend) {
    assert_eq!(acc.len(), x.len(), "gf_mac_bytes: length mismatch");
    if c != 0 {
        gf_apply::<true>(acc, x, c, backend);
    }
}

/// The eight interleaved slice-by-8 tables; `CRC_TABLES[0]` is the plain
/// byte-at-a-time table, `CRC_TABLES[k][v]` advances `v` through `k`
/// additional zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ crate::crc::POLY
            } else {
                crc >> 1
            };
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

fn crc32c_table(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

fn crc32c_slice8(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let low = crc ^ u32::from_le_bytes(ch[0..4].try_into().unwrap());
        crc = CRC_TABLES[7][(low & 0xFF) as usize]
            ^ CRC_TABLES[6][((low >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((low >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(low >> 24) as usize]
            ^ CRC_TABLES[3][ch[4] as usize]
            ^ CRC_TABLES[2][ch[5] as usize]
            ^ CRC_TABLES[1][ch[6] as usize]
            ^ CRC_TABLES[0][ch[7] as usize];
    }
    crc32c_table(crc, chunks.remainder())
}

/// Advance an in-flight (pre-inverted) CRC-32C state over `bytes` on the
/// chosen backend. All backends implement the identical polynomial, so
/// the result is backend-independent bit-for-bit.
#[must_use]
pub fn crc32c_update(crc: u32, bytes: &[u8], backend: CrcBackend) -> u32 {
    match backend {
        CrcBackend::Table => crc32c_table(crc, bytes),
        CrcBackend::SliceBy8 => crc32c_slice8(crc, bytes),
        CrcBackend::Hardware => {
            #[cfg(target_arch = "x86_64")]
            // Safety: backend presence implies SSE4.2 was detected.
            unsafe {
                x86::crc32c_hw(crc, bytes)
            }
            #[cfg(not(target_arch = "x86_64"))]
            crc32c_slice8(crc, bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(len: usize, salt: u64) -> Vec<u8> {
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt.wrapping_mul(0xD134_2543_DE82_EF95));
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn nibble_tables_reassemble_the_full_row() {
        for c in [0u8, 1, 2, 29, 143, 255] {
            let (lo, hi) = nibble_tables(c);
            for b in 0..=255u8 {
                assert_eq!(
                    lo[(b & 0x0F) as usize] ^ hi[(b >> 4) as usize],
                    gf256::mul(c, b),
                    "c={c} b={b}"
                );
            }
        }
    }

    #[test]
    fn every_gf_backend_matches_the_reference_at_awkward_lengths() {
        // 0, sub-16-byte tails, exactly one vector, vector+tail, large.
        for len in [0usize, 1, 7, 15, 16, 17, 31, 32, 33, 63, 64, 65, 1000] {
            let base = bytes(len, 1);
            let x = bytes(len, 2);
            for c in [0u8, 1, 2, 29, 254, 255] {
                // the log/exp reference
                let mut want_mul = x.clone();
                gf256::scale_slice(&mut want_mul, c);
                let mut want_mac = base.clone();
                gf256::mac_slice(&mut want_mac, &x, c);
                for backend in GfBackend::available() {
                    // over a dirty destination: every byte is overwritten
                    let mut got = base.clone();
                    gf_mul_bytes(&mut got, &x, c, backend);
                    assert_eq!(got, want_mul, "mul len={len} c={c} {backend:?}");
                    let mut got = base.clone();
                    gf_mac_bytes(&mut got, &x, c, backend);
                    assert_eq!(got, want_mac, "mac len={len} c={c} {backend:?}");
                }
            }
        }
    }

    #[test]
    fn every_crc_backend_matches_table_at_awkward_lengths() {
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000] {
            let d = bytes(len, 3);
            let want = crc32c_update(!0, &d, CrcBackend::Table);
            for backend in CrcBackend::available() {
                assert_eq!(
                    crc32c_update(!0, &d, backend),
                    want,
                    "len={len} {backend:?}"
                );
            }
        }
    }

    #[test]
    fn selection_honours_the_mode() {
        // `SKT_KERNEL_SIMD=0` runs what a CPU without the features runs
        assert_eq!(GfBackend::select(SimdMode::Portable), GfBackend::Portable);
        assert_eq!(CrcBackend::select(SimdMode::Portable), CrcBackend::SliceBy8);
        assert_eq!(
            GfBackend::select(SimdMode::Auto),
            GfBackend::best_accelerated()
        );
        assert_eq!(
            CrcBackend::select(SimdMode::Auto),
            CrcBackend::best_accelerated()
        );
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(GfBackend::select(SimdMode::Auto), GfBackend::Avx2);
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            assert_eq!(CrcBackend::select(SimdMode::Auto), CrcBackend::Hardware);
        }
    }

    #[test]
    fn env_convention_parses() {
        assert_eq!(SimdMode::from_env_str("0"), SimdMode::Portable);
        assert_eq!(SimdMode::from_env_str("off"), SimdMode::Portable);
        assert_eq!(SimdMode::from_env_str(" 1 "), SimdMode::Auto);
        assert_eq!(SimdMode::from_env_str("on"), SimdMode::Auto);
        assert_eq!(SimdMode::from_env_str("true"), SimdMode::Auto);
        assert_eq!(SimdMode::from_env_str("auto"), SimdMode::Auto);
    }

    #[test]
    fn f64_byte_views_round_trip() {
        let mut buf: Vec<f64> = (0..9).map(|i| (i as f64).exp()).collect();
        let orig = buf.clone();
        let view = f64_bytes(&buf);
        assert_eq!(view.len(), 72);
        let copy: Vec<u8> = view.to_vec();
        let view_mut = f64_bytes_mut(&mut buf);
        view_mut.copy_from_slice(&copy);
        assert!(buf
            .iter()
            .zip(&orig)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
