//! Typed message payloads and reduction operators.
//!
//! Messages carry typed vectors rather than raw bytes: ranks live in one
//! process, so moving a `Vec<f64>` is free of serialization cost, and the
//! reduce operators (`MPI_BXOR` on integer words, `MPI_SUM` on doubles —
//! §2.2 of the paper) stay type-safe.
//!
//! The hot reduce arms — SUM and XOR over `F64`, the ones that carry
//! whole checkpoint stripes, and XOR over `U64` — run on the
//! cache-blocked multi-threaded kernels from `skt_encoding::kernels`,
//! under the process-wide [`KernelConfig`]. [`Payload::Empty`] is every
//! operator's identity ([`ReduceOp::fold`]): a rank with nothing to
//! contribute sends no zeros and costs no pass.

use skt_encoding::{kernels, KernelConfig};

/// A message body.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Double-precision data (matrix blocks, stripes, checksums).
    F64(Vec<f64>),
    /// 64-bit words.
    U64(Vec<u64>),
    /// Signed integers (pivot indices, iteration counters).
    I64(Vec<i64>),
    /// Empty body (barriers, pure signals).
    Empty,
}

impl Payload {
    /// Number of elements (0 for `Empty`).
    pub fn len(&self) -> usize {
        match self {
            Payload::F64(v) => v.len(),
            Payload::U64(v) => v.len(),
            Payload::I64(v) => v.len(),
            Payload::Empty => 0,
        }
    }

    /// True when the payload holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate wire size in bytes (for network-model accounting).
    pub fn size_bytes(&self) -> usize {
        match self {
            Payload::F64(v) => v.len() * 8,
            Payload::U64(v) => v.len() * 8,
            Payload::I64(v) => v.len() * 8,
            Payload::Empty => 0,
        }
    }

    /// Unwrap as `Vec<f64>`; panics on type mismatch (a protocol bug).
    pub fn into_f64(self) -> Vec<f64> {
        match self {
            Payload::F64(v) => v,
            other => panic!("expected F64 payload, got {:?}", other.kind()),
        }
    }

    /// Unwrap as `Vec<i64>`; panics on type mismatch.
    pub fn into_i64(self) -> Vec<i64> {
        match self {
            Payload::I64(v) => v,
            other => panic!("expected I64 payload, got {:?}", other.kind()),
        }
    }

    /// Short kind name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::F64(_) => "F64",
            Payload::U64(_) => "U64",
            Payload::I64(_) => "I64",
            Payload::Empty => "Empty",
        }
    }
}

/// Element-wise reduction operator, the `MPI_Op` of a reduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Numeric addition (`MPI_SUM`); valid on `F64`, `U64`
    /// (wrapping), and `I64` (wrapping).
    Sum,
    /// Bitwise exclusive-or (`MPI_BXOR`); valid on `F64` (IEEE-754 bit
    /// patterns) and `U64`.
    Xor,
    /// Element-wise maximum; valid on `F64` and `I64`.
    Max,
    /// Element-wise minimum; valid on `F64` and `I64`.
    Min,
}

impl ReduceOp {
    /// `acc := acc op rhs` with [`Payload::Empty`] as the identity: an
    /// empty `rhs` leaves `acc` alone, an empty `acc` adopts `rhs` by
    /// move, and only two non-empty sides meet in [`ReduceOp::apply`].
    pub fn fold(self, acc: &mut Payload, rhs: Payload) {
        match (&*acc, &rhs) {
            (_, Payload::Empty) => {}
            (Payload::Empty, _) => *acc = rhs,
            _ => self.apply(acc, &rhs),
        }
    }

    /// `acc := acc op rhs`, element-wise. Panics on type mismatch or
    /// length mismatch — both indicate a collective protocol bug, not a
    /// runtime condition.
    pub fn apply(self, acc: &mut Payload, rhs: &Payload) {
        assert_eq!(acc.len(), rhs.len(), "reduce: length mismatch");
        match (self, acc, rhs) {
            // Empty payloads reduce trivially under any op (barriers).
            (_, Payload::Empty, Payload::Empty) => {}
            (ReduceOp::Sum, Payload::F64(a), Payload::F64(b)) => {
                kernels::sum_accumulate(a, b, KernelConfig::global());
            }
            (ReduceOp::Sum, Payload::U64(a), Payload::U64(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = x.wrapping_add(*y);
                }
            }
            (ReduceOp::Sum, Payload::I64(a), Payload::I64(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = x.wrapping_add(*y);
                }
            }
            (ReduceOp::Xor, Payload::F64(a), Payload::F64(b)) => {
                kernels::xor_accumulate(a, b, KernelConfig::global());
            }
            (ReduceOp::Xor, Payload::U64(a), Payload::U64(b)) => {
                kernels::xor_accumulate_u64(a, b, KernelConfig::global());
            }
            (ReduceOp::Max, Payload::F64(a), Payload::F64(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = x.max(*y);
                }
            }
            (ReduceOp::Max, Payload::I64(a), Payload::I64(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = (*x).max(*y);
                }
            }
            (ReduceOp::Min, Payload::F64(a), Payload::F64(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = x.min(*y);
                }
            }
            (ReduceOp::Min, Payload::I64(a), Payload::I64(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = (*x).min(*y);
                }
            }
            (op, a, b) => panic!(
                "reduce op {:?} unsupported on ({}, {})",
                op,
                a.kind(),
                b.kind()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_f64() {
        let mut a = Payload::F64(vec![1.0, 2.0]);
        ReduceOp::Sum.apply(&mut a, &Payload::F64(vec![10.0, 20.0]));
        assert_eq!(a, Payload::F64(vec![11.0, 22.0]));
    }

    #[test]
    fn xor_u64_is_self_inverse() {
        let orig = vec![0xDEAD, 0xBEEF, 0x1234];
        let key = vec![0xAAAA, 0x5555, 0xFFFF];
        let mut a = Payload::U64(orig.clone());
        ReduceOp::Xor.apply(&mut a, &Payload::U64(key.clone()));
        ReduceOp::Xor.apply(&mut a, &Payload::U64(key));
        assert_eq!(a, Payload::U64(orig));
    }

    #[test]
    fn max_min_i64() {
        let mut a = Payload::I64(vec![1, 9]);
        ReduceOp::Max.apply(&mut a, &Payload::I64(vec![5, 2]));
        assert_eq!(a, Payload::I64(vec![5, 9]));
        ReduceOp::Min.apply(&mut a, &Payload::I64(vec![0, 100]));
        assert_eq!(a, Payload::I64(vec![0, 9]));
    }

    #[test]
    fn xor_f64_combines_bit_patterns_exactly() {
        // Patterns float arithmetic would quieten, canonicalise or
        // compare equal: quiet/signalling NaNs with payloads, -0.0,
        // a subnormal, infinities.
        let a_bits: [u64; 6] = [
            0x7FF8_0000_0000_0001,
            0x7FF0_0000_0000_0001,
            0x8000_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x7FF0_0000_0000_0000,
            0xFFF4_0000_DEAD_BEEF,
        ];
        let b_bits: [u64; 6] = [
            0x7FF0_0000_0000_0001,
            0xFFF8_0000_0000_0000,
            0x0000_0000_0000_0000,
            0x8000_0000_0000_0000,
            0xFFF0_0000_0000_0000,
            0x7FF4_0000_DEAD_BEEF,
        ];
        let floats = |bits: &[u64]| bits.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>();
        let bits = |p: &Payload| match p {
            Payload::F64(v) => v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            other => panic!("expected F64, got {}", other.kind()),
        };
        let mut acc = Payload::F64(floats(&a_bits));
        let rhs = Payload::F64(floats(&b_bits));
        ReduceOp::Xor.apply(&mut acc, &rhs);
        let want: Vec<u64> = a_bits.iter().zip(&b_bits).map(|(a, b)| a ^ b).collect();
        assert_eq!(bits(&acc), want);
        // self-inverse: the second application restores every pattern
        ReduceOp::Xor.apply(&mut acc, &rhs);
        assert_eq!(bits(&acc), a_bits);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn xor_on_i64_is_rejected() {
        let mut a = Payload::I64(vec![1]);
        ReduceOp::Xor.apply(&mut a, &Payload::I64(vec![1]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_is_rejected() {
        let mut a = Payload::U64(vec![1]);
        ReduceOp::Xor.apply(&mut a, &Payload::U64(vec![1, 2]));
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::F64(vec![0.0; 3]).size_bytes(), 24);
        assert_eq!(Payload::Empty.len(), 0);
        assert!(Payload::Empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "expected F64")]
    fn typed_unwrap_enforced() {
        Payload::U64(vec![1]).into_f64();
    }
}
