//! Dual parity (RAID-6 / Reed-Solomon P+Q) — the "more complex encoding
//! methods … to tolerate more node failures" extension the paper names in
//! §2.1.
//!
//! For stripes `D_0 … D_{k-1}` (byte-wise over GF(2^8)):
//!
//! * `P = D_0 ⊕ D_1 ⊕ … ⊕ D_{k-1}`
//! * `Q = g^0·D_0 ⊕ g^1·D_1 ⊕ … ⊕ g^{k-1}·D_{k-1}`
//!
//! Any two erasures among `{D_i} ∪ {P, Q}` are recoverable. Data here is
//! `f64`, viewed as little-endian bytes — recovery is bit-exact. All hot
//! loops run on the chunked [`crate::kernels`] engine: the plain methods
//! use the process-wide [`KernelConfig`], the `_with` variants take an
//! explicit policy (the benchmarks A/B serial against parallel).

use crate::gf256;
use crate::kernels::{self, KernelConfig};

/// Encoder/decoder for one group of `k` data stripes.
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

    /// Number of data stripes.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Compute `(P, Q)` for the stripes under the process-wide
    /// [`KernelConfig`].
    pub fn encode(&self, stripes: &[&[f64]]) -> (Vec<f64>, Vec<f64>) {
        self.encode_with(stripes, KernelConfig::global())
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

    /// Recover up to two erasures. `stripes[i]` is `None` when lost;
    /// `p`/`q` are `None` when the corresponding parity is lost. Returns
    /// the fully restored stripe set (parities are not returned — re-run
    /// [`Self::encode`] if needed). Runs under the process-wide
    /// [`KernelConfig`].
    ///
    /// Panics if more than two things are missing (beyond the code's
    /// correction capability) — callers detect that case from group
    /// membership before recovery.
    pub fn recover(
        &self,
        stripes: &[Option<&[f64]>],
        p: Option<&[f64]>,
        q: Option<&[f64]>,
    ) -> Vec<Vec<f64>> {
        self.recover_with(stripes, p, q, KernelConfig::global())
    }

    /// [`Self::recover`] under an explicit kernel policy.
    pub fn recover_with(
        &self,
        stripes: &[Option<&[f64]>],
        p: Option<&[f64]>,
        q: Option<&[f64]>,
        cfg: KernelConfig,
    ) -> Vec<Vec<f64>> {
        assert_eq!(stripes.len(), self.k, "need exactly k stripe slots");
        let missing: Vec<usize> = (0..self.k).filter(|&i| stripes[i].is_none()).collect();
        let lost = missing.len() + usize::from(p.is_none()) + usize::from(q.is_none());
        assert!(
            lost <= 2,
            "dual parity corrects at most two erasures, got {lost}"
        );

        let restored: Vec<(usize, Vec<f64>)> = match (missing.as_slice(), p, q) {
            // Nothing lost among data.
            ([], _, _) => return stripes.iter().map(|s| s.unwrap().to_vec()).collect(),
            // One data stripe lost, P available: XOR reconstruction.
            ([x], Some(p), _) => {
                let mut d = p.to_vec();
                for (i, s) in stripes.iter().enumerate() {
                    if i != *x {
                        kernels::xor_accumulate(&mut d, s.unwrap(), cfg);
                    }
                }
                vec![(*x, d)]
            }
            // One data stripe lost, P lost too: solve with Q.
            ([x], None, Some(q)) => {
                // q_partial = Q ⊕ Σ_{i≠x} g^i D_i ; D_x = q_partial / g^x
                let mut qp = q.to_vec();
                for (i, s) in stripes.iter().enumerate() {
                    if i != *x {
                        kernels::gf_mac(&mut qp, s.unwrap(), gf256::gpow(i), cfg);
                    }
                }
                let inv = gf256::inv(gf256::gpow(*x));
                vec![(*x, kernels::gf_scaled_copies(&qp, &[inv], cfg).remove(0))]
            }
            // Two data stripes lost: solve the 2x2 system with P and Q.
            ([x, y], Some(p), Some(q)) => {
                let (x, y) = (*x, *y);
                let mut pp = p.to_vec();
                let mut qp = q.to_vec();
                for (i, s) in stripes.iter().enumerate() {
                    if i != x && i != y {
                        let s = s.unwrap();
                        kernels::xor_accumulate(&mut pp, s, cfg);
                        kernels::gf_mac(&mut qp, s, gf256::gpow(i), cfg);
                    }
                }
                // pp = Dx ⊕ Dy ; qp = g^x Dx ⊕ g^y Dy
                // => Dy = (qp ⊕ g^x·pp) / (g^x ⊕ g^y); Dx = pp ⊕ Dy
                let gx = gf256::gpow(x);
                let gy = gf256::gpow(y);
                kernels::gf_mac(&mut qp, &pp, gx, cfg);
                let dy = kernels::gf_scaled_copies(&qp, &[gf256::inv(gx ^ gy)], cfg).remove(0);
                let mut dx = pp;
                kernels::xor_accumulate(&mut dx, &dy, cfg);
                vec![(x, dx), (y, dy)]
            }
            _ => panic!("unrecoverable erasure pattern"),
        };
        let mut out: Vec<Option<Vec<f64>>> =
            stripes.iter().map(|s| s.map(<[f64]>::to_vec)).collect();
        for (i, d) in restored {
            out[i] = Some(d);
        }
        out.into_iter()
            .map(|s| s.expect("all stripes placed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(k: usize, len: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 31 + j * 7) as f64).sin() * 1e3)
                    .collect()
            })
            .collect()
    }

    fn refs(v: &[Vec<f64>]) -> Vec<&[f64]> {
        v.iter().map(|s| s.as_slice()).collect()
    }

    #[test]
    fn recovers_single_data_loss_via_p() {
        let data = sample(5, 16);
        let dp = DualParity::new(5, 16);
        let (p, q) = dp.encode(&refs(&data));
        for lost in 0..5 {
            let stripes: Vec<Option<&[f64]>> = data
                .iter()
                .enumerate()
                .map(|(i, s)| if i == lost { None } else { Some(s.as_slice()) })
                .collect();
            let rec = dp.recover(&stripes, Some(&p), Some(&q));
            assert_eq!(rec[lost], data[lost], "stripe {lost}");
        }
    }

    #[test]
    fn recovers_data_plus_p_loss_via_q() {
        let data = sample(4, 8);
        let dp = DualParity::new(4, 8);
        let (_p, q) = dp.encode(&refs(&data));
        for lost in 0..4 {
            let stripes: Vec<Option<&[f64]>> = data
                .iter()
                .enumerate()
                .map(|(i, s)| if i == lost { None } else { Some(s.as_slice()) })
                .collect();
            let rec = dp.recover(&stripes, None, Some(&q));
            for (a, b) in rec[lost].iter().zip(&data[lost]) {
                assert_eq!(a.to_bits(), b.to_bits(), "bit-exact recovery");
            }
        }
    }

    #[test]
    fn recovers_two_data_losses() {
        let data = sample(6, 12);
        let dp = DualParity::new(6, 12);
        let (p, q) = dp.encode(&refs(&data));
        for x in 0..6 {
            for y in x + 1..6 {
                let stripes: Vec<Option<&[f64]>> = data
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        if i == x || i == y {
                            None
                        } else {
                            Some(s.as_slice())
                        }
                    })
                    .collect();
                let rec = dp.recover(&stripes, Some(&p), Some(&q));
                assert_eq!(rec[x], data[x], "({x},{y})");
                assert_eq!(rec[y], data[y], "({x},{y})");
            }
        }
    }

    #[test]
    fn parity_only_loss_is_trivial() {
        let data = sample(3, 4);
        let dp = DualParity::new(3, 4);
        let stripes: Vec<Option<&[f64]>> = data.iter().map(|s| Some(s.as_slice())).collect();
        let rec = dp.recover(&stripes, None, None);
        assert_eq!(rec, data);
    }

    #[test]
    #[should_panic(expected = "at most two")]
    fn three_erasures_rejected() {
        let data = sample(4, 4);
        let dp = DualParity::new(4, 4);
        let (p, _q) = dp.encode(&refs(&data));
        let stripes: Vec<Option<&[f64]>> = data
            .iter()
            .enumerate()
            .map(|(i, s)| if i < 2 { None } else { Some(s.as_slice()) })
            .collect();
        dp.recover(&stripes, Some(&p), None);
    }

    #[test]
    fn special_float_values_round_trip() {
        let data = vec![
            vec![f64::INFINITY, f64::NEG_INFINITY, 0.0],
            vec![f64::NAN, -0.0, f64::MIN_POSITIVE],
        ];
        let dp = DualParity::new(2, 3);
        let (p, q) = dp.encode(&refs(&data));
        let stripes: Vec<Option<&[f64]>> = vec![None, Some(data[1].as_slice())];
        let rec = dp.recover(&stripes, Some(&p), Some(&q));
        for (a, b) in rec[0].iter().zip(&data[0]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn kernel_policies_agree_bit_exactly() {
        // Parallel chunking must not change a single bit of P, Q, or any
        // recovered stripe.
        let data = sample(7, 1031);
        let dp = DualParity::new(7, 1031);
        let serial = KernelConfig::serial();
        let par = KernelConfig::new(4, 128);
        let (p0, q0) = dp.encode_with(&refs(&data), serial);
        let (p1, q1) = dp.encode_with(&refs(&data), par);
        assert!(p0.iter().zip(&p1).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(q0.iter().zip(&q1).all(|(a, b)| a.to_bits() == b.to_bits()));
        let stripes: Vec<Option<&[f64]>> = data
            .iter()
            .enumerate()
            .map(|(i, s)| if i < 2 { None } else { Some(s.as_slice()) })
            .collect();
        let r0 = dp.recover_with(&stripes, Some(&p0), Some(&q0), serial);
        let r1 = dp.recover_with(&stripes, Some(&p0), Some(&q0), par);
        for (a, b) in r0.iter().zip(&r1) {
            assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        assert_eq!(r0[0], data[0]);
        assert_eq!(r0[1], data[1]);
    }
}
