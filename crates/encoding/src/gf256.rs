//! GF(2^8) arithmetic for the dual-parity (RAID-6-style) extension.
//!
//! Field: polynomials over GF(2) modulo `x^8 + x^4 + x^3 + x^2 + 1`
//! (0x11D), the conventional RAID-6 field; `g = 2` generates the
//! multiplicative group.

use std::sync::OnceLock;

const POLY: u16 = 0x11D;

/// The generator element used for the Q parity coefficients.
pub const GENERATOR: u8 = 2;

struct Tables {
    exp: [u8; 512], // doubled so exp[(a+b) mod 255] reads need no modulo
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    static T: OnceLock<Tables> = OnceLock::new();
    T.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for i in 0..255 {
            exp[i] = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Field addition (= subtraction): XOR.
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication via log/exp tables.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Multiplicative inverse; panics on zero.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "gf256: zero has no inverse");
    let t = tables();
    t.exp[255 - t.log[a as usize] as usize]
}

/// `g^i` for the Q-parity coefficient of stripe `i`.
#[inline]
pub fn gpow(i: usize) -> u8 {
    tables().exp[i % 255]
}

/// Multiply every byte of `data` by the scalar `c`, in place.
pub fn scale_slice(data: &mut [u8], c: u8) {
    if c == 1 {
        return;
    }
    if c == 0 {
        data.fill(0);
        return;
    }
    let t = tables();
    let lc = t.log[c as usize] as usize;
    for b in data.iter_mut() {
        *b = if *b == 0 {
            0
        } else {
            t.exp[t.log[*b as usize] as usize + lc]
        };
    }
}

/// Invert a square matrix over GF(2^8) by Gauss–Jordan elimination with
/// partial pivoting (any nonzero pivot works — the field is exact).
/// Returns `None` for a singular matrix. Used by the GF codec
/// ([`crate::rs`]) to solve for erased codeword positions; its generator
/// submatrices are nonsingular by construction, so `None` there would
/// indicate a construction bug.
#[must_use]
pub fn invert_matrix(mat: &[Vec<u8>]) -> Option<Vec<Vec<u8>>> {
    let n = mat.len();
    // Augmented [A | I] rows, eliminated in place.
    let mut a: Vec<Vec<u8>> = mat
        .iter()
        .enumerate()
        .map(|(i, row)| {
            assert_eq!(row.len(), n, "invert_matrix: matrix must be square");
            let mut r = row.clone();
            r.resize(2 * n, 0);
            r[n + i] = 1;
            r
        })
        .collect();
    for col in 0..n {
        let pivot = (col..n).find(|&r| a[r][col] != 0)?;
        a.swap(col, pivot);
        let p_inv = inv(a[col][col]);
        for v in a[col].iter_mut() {
            *v = mul(*v, p_inv);
        }
        for row in 0..n {
            if row == col || a[row][col] == 0 {
                continue;
            }
            let factor = a[row][col];
            let (src, dst) = if row < col {
                let (lo, hi) = a.split_at_mut(col);
                (&hi[0], &mut lo[row])
            } else {
                let (lo, hi) = a.split_at_mut(row);
                (&lo[col], &mut hi[0])
            };
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d ^= mul(factor, *s);
            }
        }
    }
    Some(a.into_iter().map(|row| row[n..].to_vec()).collect())
}

/// `acc[i] ^= mul(c, x[i])` — the fused multiply-accumulate of RS coding.
pub fn mac_slice(acc: &mut [u8], x: &[u8], c: u8) {
    assert_eq!(acc.len(), x.len(), "mac_slice: length mismatch");
    if c == 0 {
        return;
    }
    let t = tables();
    let lc = t.log[c as usize] as usize;
    for (a, b) in acc.iter_mut().zip(x) {
        if *b != 0 {
            *a ^= t.exp[t.log[*b as usize] as usize + lc];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_is_commutative_and_distributes() {
        for a in [0u8, 1, 2, 7, 123, 255] {
            for b in [0u8, 1, 3, 99, 200, 255] {
                assert_eq!(mul(a, b), mul(b, a));
                for c in [5u8, 17] {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn inverse_round_trips() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
            assert_eq!(mul(mul(a, 77), inv(77)), a);
        }
    }

    #[test]
    fn generator_has_full_order() {
        let mut seen = [false; 256];
        for i in 0..255 {
            let v = gpow(i);
            assert!(!seen[v as usize], "g^{i} repeats");
            seen[v as usize] = true;
        }
        assert!(!seen[0], "powers of g are never zero");
        assert_eq!(gpow(0), 1);
        assert_eq!(gpow(1), GENERATOR);
        assert_eq!(gpow(255), 1);
    }

    #[test]
    fn scale_and_mac_match_scalar_ops() {
        let x: Vec<u8> = (0..=255).collect();
        let mut scaled = x.clone();
        scale_slice(&mut scaled, 29);
        for (i, v) in scaled.iter().enumerate() {
            assert_eq!(*v, mul(x[i], 29));
        }
        let mut acc = vec![0xAB; 256];
        mac_slice(&mut acc, &x, 29);
        for (i, v) in acc.iter().enumerate() {
            assert_eq!(*v, 0xAB ^ mul(x[i], 29));
        }
    }

    #[test]
    fn scale_by_zero_and_one() {
        let mut a = vec![1, 2, 3];
        scale_slice(&mut a, 1);
        assert_eq!(a, vec![1, 2, 3]);
        scale_slice(&mut a, 0);
        assert_eq!(a, vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "no inverse")]
    fn zero_inverse_panics() {
        inv(0);
    }

    #[test]
    fn invert_matrix_round_trips_and_detects_singularity() {
        // A known-invertible Cauchy matrix: a[i][j] = 1/(x_i ^ y_j).
        let n = 4;
        let m: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| inv((i as u8) ^ (n as u8 + j as u8)))
                    .collect()
            })
            .collect();
        let mi = invert_matrix(&m).expect("Cauchy matrices are invertible");
        for i in 0..n {
            for j in 0..n {
                let mut cell = 0u8;
                for (k, mik) in m[i].iter().enumerate() {
                    cell ^= mul(*mik, mi[k][j]);
                }
                assert_eq!(cell, u8::from(i == j), "identity cell ({i},{j})");
            }
        }
        // Duplicate rows are singular.
        let sing = vec![vec![1u8, 2], vec![1u8, 2]];
        assert!(invert_matrix(&sing).is_none());
        // Empty matrix inverts to the empty matrix.
        assert_eq!(invert_matrix(&[]), Some(vec![]));
    }

    // Exhaustive field-axiom checks are infeasible over all 2^24 triples
    // per axiom; proptest samples the triple space densely instead.
    mod axioms {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn addition_forms_an_abelian_group(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
                prop_assert_eq!(add(a, b), add(b, a));
                prop_assert_eq!(add(add(a, b), c), add(a, add(b, c)));
                prop_assert_eq!(add(a, 0), a);
                // characteristic 2: every element is its own additive inverse
                prop_assert_eq!(add(a, a), 0);
            }

            #[test]
            fn multiplication_is_associative_and_commutative(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
                prop_assert_eq!(mul(a, b), mul(b, a));
                prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                prop_assert_eq!(mul(a, 1), a);
                prop_assert_eq!(mul(a, 0), 0);
            }

            #[test]
            fn multiplication_distributes_over_addition(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
                prop_assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                prop_assert_eq!(mul(add(a, b), c), add(mul(a, c), mul(b, c)));
            }

            #[test]
            fn every_nonzero_element_has_an_inverse(a in 0u8..255) {
                let a = a + 1; // 1..=255: zero has no inverse
                let ai = inv(a);
                prop_assert_eq!(mul(a, ai), 1);
                prop_assert_eq!(mul(ai, a), 1);
            }

            #[test]
            fn no_zero_divisors(a in 0u8..255, b in 0u8..255) {
                prop_assert_ne!(mul(a + 1, b + 1), 0);
            }
        }
    }
}
