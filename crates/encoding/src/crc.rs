//! CRC32C (Castagnoli) checksums for checkpoint integrity.
//!
//! In-memory checkpoints trust DRAM for the whole job lifetime, which is
//! exactly where silent corruption is most damaging: a flipped bit in a
//! checkpoint copy or a parity stripe is restored *bit-exactly* into the
//! application unless something checks. This module provides the
//! detection layer: CRC32C over `f64` buffers, walked in
//! [`KernelConfig::chunk_len`] blocks like every other kernel so large
//! buffers are shared with the call's scoped helper threads — the per-block
//! CRCs are stitched together with the exact GF(2) combine, so the
//! parallel result is bit-identical to the serial walk for every policy.
//! [`copy_with_stripe_crcs`] fuses the witness into a fill of *produced*
//! bytes — encoded parity, rebuilt stripes, and the baseline methods'
//! copy of a workspace nothing has witnessed: each block is CRC'd at its
//! destination while it is still cache-hot. A copy of bytes that already
//! carry a witness does not come here: the protocol copies the source's
//! stored stripe CRCs along with the bytes, so a source changed since its
//! witness stays detectable at the destination.
//!
//! The Castagnoli polynomial (`0x1EDC6F41`, reflected `0x82F63B78`) is
//! the iSCSI / SCTP / SSE4.2 `crc32` polynomial — the conventional choice
//! for storage integrity because of its better Hamming distance at these
//! block sizes than CRC-32/ISO. The byte walk itself dispatches through
//! [`crate::simd::CrcBackend`] (table / slice-by-8 / hardware `crc32`),
//! every variant of which computes the identical function.

use crate::kernels::{for_each_block, KernelConfig};
use crate::simd::{self, CrcBackend};

/// Reflected CRC32C (Castagnoli) polynomial.
pub(crate) const POLY: u32 = 0x82F6_3B78;

/// CRC32C of a byte slice (standard init `!0`, final xor `!0`), on the
/// backend the process-wide [`KernelConfig::global`] policy selects.
#[must_use]
pub fn crc32c(bytes: &[u8]) -> u32 {
    let backend = CrcBackend::select(KernelConfig::global().simd);
    !simd::crc32c_update(!0, bytes, backend)
}

/// A GF(2) operator on CRC states: entry `i` is the image of bit `i`.
pub(crate) type Gf2Matrix = [u32; 32];

pub(crate) fn gf2_matrix_times(mat: &Gf2Matrix, mut vec: u32) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

fn gf2_matrix_mul(a: &Gf2Matrix, b: &Gf2Matrix) -> Gf2Matrix {
    std::array::from_fn(|i| gf2_matrix_times(a, b[i]))
}

/// The operator that advances a CRC through `len` zero bytes: the
/// one-zero-bit shift raised to the `8·len`-th power by repeated
/// squaring (the zlib `crc32_combine` construction).
pub(crate) fn zero_shift(mut len: u64) -> Gf2Matrix {
    let mut power: Gf2Matrix = std::array::from_fn(|i| if i == 0 { POLY } else { 1 << (i - 1) });
    for _ in 0..3 {
        power = gf2_matrix_mul(&power, &power); // 1 bit -> 8 bits
    }
    let mut shift: Gf2Matrix = std::array::from_fn(|i| 1 << i);
    while len != 0 {
        if len & 1 != 0 {
            shift = gf2_matrix_mul(&power, &shift);
        }
        len >>= 1;
        if len != 0 {
            power = gf2_matrix_mul(&power, &power);
        }
    }
    shift
}

/// Combine two CRC32C values: for buffers `A` and `B`,
/// `crc32c(A ‖ B) == crc32c_combine(crc32c(A), crc32c(B), B.len())`.
///
/// Advance `crc_a` through `len_b` zero bytes, then xor in `crc_b`. It
/// is exact, so chunked parallel CRCs reassemble to the serial answer
/// bit-for-bit.
#[must_use]
pub fn crc32c_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    gf2_matrix_times(&zero_shift(len_b), crc_a) ^ crc_b
}

/// Per-block CRCs to per-stripe CRCs. `parts` holds, stripe after
/// stripe, the CRC of every `chunk_len`-element block of a `len`-element
/// buffer carved into `stripe_len`-element stripes (a stripe's last
/// block and the buffer's last stripe may be short).
fn stitch(parts: &[u32], len: usize, stripe_len: usize, chunk_len: usize) -> Vec<u32> {
    // every full block shifts by the same operator: build it on first use
    let mut full_block: Option<Gf2Matrix> = None;
    let mut parts = parts.iter();
    (0..len)
        .step_by(stripe_len)
        .map(|start| {
            let stripe = stripe_len.min(len - start);
            let mut crc = 0;
            for at in (0..stripe).step_by(chunk_len) {
                let block = chunk_len.min(stripe - at);
                let part = *parts.next().expect("one CRC per block");
                crc = if at == 0 {
                    part
                } else if block == chunk_len {
                    let shift = full_block.get_or_insert_with(|| zero_shift(chunk_len as u64 * 8));
                    gf2_matrix_times(shift, crc) ^ part
                } else {
                    crc32c_combine(crc, part, block as u64 * 8)
                };
            }
            crc
        })
        .collect()
}

/// Serial CRC32C over the little-endian bytes of an `f64` span,
/// continuing from an in-flight (pre-inverted) state. On little-endian
/// targets the span is walked as one contiguous byte view (so the
/// slice-by-8 / hardware backends see long runs); elsewhere each element
/// is serialized to little-endian explicitly.
fn update_f64(mut crc: u32, span: &[f64], backend: CrcBackend) -> u32 {
    if cfg!(target_endian = "little") {
        return simd::crc32c_update(crc, simd::f64_bytes(span), backend);
    }
    for v in span {
        crc = simd::crc32c_update(crc, &v.to_bits().to_le_bytes(), backend);
    }
    crc
}

/// CRC32C over the little-endian byte image of an `f64` buffer. When the
/// calling thread's worker budget allows, the buffer's
/// `cfg.chunk_len`-element blocks are CRC'd by the caller and its scoped
/// helper threads and stitched with the exact combine; the result equals
/// the serial walk bit-for-bit.
#[must_use]
pub fn crc32c_f64(data: &[f64], cfg: KernelConfig) -> u32 {
    let backend = CrcBackend::select(cfg.simd);
    if !cfg.is_parallel_for(data.len()) {
        return !update_f64(!0, data, backend);
    }
    let blocks = data.chunks(cfg.chunk_len);
    let mut parts = vec![0u32; blocks.len()];
    for_each_block(
        cfg,
        parts.len(),
        blocks.zip(parts.iter_mut()),
        |(block, part)| *part = !update_f64(!0, block, backend),
    );
    stitch(&parts, data.len(), data.len(), cfg.chunk_len)[0]
}

/// Per-stripe CRC32Cs of a buffer carved into `stripe_len`-element
/// stripes (the group layout's stripe geometry; a short tail stripe gets
/// its own CRC). This is the unit of corruption *localization*: a
/// mismatching entry names the stripe, and the repair path downgrades
/// its owner to an erasure for the group parity to rebuild.
#[must_use]
pub fn stripe_crcs(data: &[f64], stripe_len: usize, cfg: KernelConfig) -> Vec<u32> {
    assert!(stripe_len > 0, "stripe_len must be positive");
    data.chunks(stripe_len)
        .map(|s| crc32c_f64(s, cfg))
        .collect()
}

/// `dst := src` fused with [`stripe_crcs`]`(dst, stripe_len)`: every
/// cache block is copied and then CRC'd **at its destination** while
/// still cache-hot, and the per-block CRCs are stitched per stripe. The
/// witness therefore covers the bytes that landed, exactly as a separate
/// `copy` + `stripe_crcs(dst)` would, for one read of each instead of
/// two. It is for bytes being produced (a parity or rebuild fill) or
/// copied out of an unwitnessed source: a copy of witnessed bytes should
/// carry their witness instead of taking a new one, which would bless any
/// change made to the source since.
#[must_use]
pub fn copy_with_stripe_crcs(
    dst: &mut [f64],
    src: &[f64],
    stripe_len: usize,
    cfg: KernelConfig,
) -> Vec<u32> {
    assert_eq!(dst.len(), src.len(), "kernel: length mismatch");
    assert!(stripe_len > 0, "stripe_len must be positive");
    let backend = CrcBackend::select(cfg.simd);
    let chunk = cfg.chunk_len;
    let n_blocks = dst
        .chunks(stripe_len)
        .map(|s| s.len().div_ceil(chunk))
        .sum();
    let mut parts = vec![0u32; n_blocks];
    let blocks = dst
        .chunks_mut(stripe_len)
        .zip(src.chunks(stripe_len))
        .flat_map(move |(d, s)| d.chunks_mut(chunk).zip(s.chunks(chunk)))
        .zip(parts.iter_mut());
    for_each_block(cfg, n_blocks, blocks, |((d, s), part)| {
        d.copy_from_slice(s);
        *part = !update_f64(!0, d, backend);
    });
    stitch(&parts, dst.len(), stripe_len, chunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISCSI check values.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn combine_matches_concatenation() {
        let a = b"the quick brown fox ";
        let b = b"jumps over the lazy dog";
        let whole: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(
            crc32c_combine(crc32c(a), crc32c(b), b.len() as u64),
            crc32c(&whole)
        );
        assert_eq!(crc32c_combine(crc32c(a), crc32c(b""), 0), crc32c(a));
    }

    fn data(len: usize, salt: u64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt);
                f64::from_bits(x >> 2)
            })
            .collect()
    }

    #[test]
    fn f64_crc_equals_byte_crc() {
        let d = data(257, 1);
        let bytes: Vec<u8> = d.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        assert_eq!(crc32c_f64(&d, KernelConfig::serial()), crc32c(&bytes));
    }

    #[test]
    fn parallel_crc_is_bit_identical_to_serial() {
        for len in [0usize, 1, 7, 100, 1023, 4096, 10_000] {
            let d = data(len, 2);
            let reference = crc32c_f64(&d, KernelConfig::serial());
            for cfg in [
                KernelConfig::new(1, 7),
                KernelConfig::new(2, 13),
                KernelConfig::new(4, 64),
                KernelConfig::new(8, 1),
                KernelConfig::new(3, 1 << 20),
            ] {
                assert_eq!(crc32c_f64(&d, cfg), reference, "len {len} cfg {cfg:?}");
            }
        }
    }

    #[test]
    fn forced_kernel_paths_agree() {
        use crate::simd::SimdMode;
        for len in [0usize, 1, 7, 100, 1023, 4096] {
            let d = data(len, 6);
            let reference = crc32c_f64(&d, KernelConfig::serial().with_simd(SimdMode::Portable));
            let auto = crc32c_f64(&d, KernelConfig::new(2, 64));
            assert_eq!(auto, reference, "len {len}");
        }
    }

    #[test]
    fn single_bit_flip_always_detected() {
        let mut d = data(64, 3);
        let clean = crc32c_f64(&d, KernelConfig::serial());
        for (i, bit) in [(0usize, 0u32), (13, 17), (63, 63)] {
            let orig = d[i];
            d[i] = f64::from_bits(orig.to_bits() ^ (1u64 << bit));
            assert_ne!(
                crc32c_f64(&d, KernelConfig::serial()),
                clean,
                "flip at elem {i} bit {bit} must change the CRC"
            );
            d[i] = orig;
        }
        assert_eq!(crc32c_f64(&d, KernelConfig::serial()), clean);
    }

    #[test]
    fn stripe_crcs_localize_the_flip() {
        let mut d = data(12, 4);
        let clean = stripe_crcs(&d, 4, KernelConfig::serial());
        assert_eq!(clean.len(), 3);
        d[5] = f64::from_bits(d[5].to_bits() ^ 1);
        let dirty = stripe_crcs(&d, 4, KernelConfig::serial());
        assert_ne!(clean[1], dirty[1], "stripe 1 holds element 5");
        assert_eq!(clean[0], dirty[0]);
        assert_eq!(clean[2], dirty[2]);
    }

    #[test]
    fn short_tail_stripe_gets_own_crc() {
        let d = data(10, 5);
        let crcs = stripe_crcs(&d, 4, KernelConfig::serial());
        assert_eq!(crcs.len(), 3, "4 + 4 + 2");
        assert_eq!(crcs[2], crc32c_f64(&d[8..], KernelConfig::serial()));
    }
}
