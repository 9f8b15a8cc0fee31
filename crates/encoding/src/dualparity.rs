//! The reference P+Q encoder (RAID-6) — the direct, non-distributed form
//! of the "more complex encoding methods … to tolerate more node
//! failures" extension the paper names in §2.1.
//!
//! For stripes `D_0 … D_{k-1}` (byte-wise over GF(2^8)):
//!
//! * `P = D_0 ⊕ D_1 ⊕ … ⊕ D_{k-1}`
//! * `Q = g^0·D_0 ⊕ g^1·D_1 ⊕ … ⊕ g^{k-1}·D_{k-1}`
//!
//! The checkpoint path encodes and decodes P+Q through the GF(2^8) codec
//! (`CodecSpec::Dual`, see [`crate::rs`]); this encoder is the golden
//! reference that codec's parity bytes are checked against. Data is
//! `f64`, viewed as little-endian bytes.

use crate::gf256;
use crate::kernels::{self, KernelConfig};

/// Reference encoder for one group of `k` data stripes.
#[derive(Clone, Copy, Debug)]
pub struct DualParity {
    k: usize,
    stripe_len: usize,
}

impl DualParity {
    /// Code over `k >= 1` stripes of `stripe_len` f64 elements
    /// (`k <= 255`, the GF(256) limit).
    pub fn new(k: usize, stripe_len: usize) -> Self {
        assert!((1..=255).contains(&k), "k must be in 1..=255");
        DualParity { k, stripe_len }
    }

    /// Compute `(P, Q)` under an explicit kernel policy.
    pub fn encode_with(&self, stripes: &[&[f64]], cfg: KernelConfig) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(stripes.len(), self.k, "need exactly k stripes");
        let mut p = vec![0.0f64; self.stripe_len];
        let mut q = vec![0.0f64; self.stripe_len];
        for (i, s) in stripes.iter().enumerate() {
            assert_eq!(s.len(), self.stripe_len, "stripe length mismatch");
            kernels::xor_accumulate(&mut p, s, cfg);
            kernels::gf_mac(&mut q, s, gf256::gpow(i), cfg);
        }
        (p, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_policies_agree_bit_exactly() {
        // Parallel chunking must not change a single bit of P or Q.
        let data: Vec<Vec<f64>> = (0..7)
            .map(|i| {
                (0..1031)
                    .map(|j| ((i * 31 + j * 7) as f64).sin() * 1e3)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = data.iter().map(|s| s.as_slice()).collect();
        let dp = DualParity::new(7, 1031);
        let (p0, q0) = dp.encode_with(&refs, KernelConfig::serial());
        let (p1, q1) = dp.encode_with(&refs, KernelConfig::new(4, 128));
        assert!(p0.iter().zip(&p1).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(q0.iter().zip(&q1).all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
