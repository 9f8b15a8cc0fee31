//! Single-failure parity codecs.
//!
//! The paper's general encoding is `X_S = X_1 + X_2 + … + X_{N-1}` where
//! `+` is "either a numerical sum or a logical exclusive-or" (§2.1),
//! computed with `MPI_Reduce(MPI_BXOR)` / `MPI_Reduce(MPI_SUM)` (§2.2).
//! XOR is the default — it is exact (operates on the `f64` *bit
//! patterns*) and often faster; SUM is supported for completeness and for
//! platforms where a numeric reduce is preferable.
//!
//! [`Code`] only selects the operator: encoding and rebuilding run
//! through the [`crate::codec`] it resolves to, whose element loops are
//! the [`crate::kernels`] accumulates.

/// Parity code over `f64` stripes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Code {
    /// Bitwise XOR of the IEEE-754 bit patterns. Exact; self-inverse.
    #[default]
    Xor,
    /// Numeric addition. Recovery subtracts, so reconstructed values can
    /// differ from the originals by floating-point rounding.
    Sum,
}

impl Code {
    /// The `MPI_Op`-style name the paper uses for this code.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Code::Xor => "BXOR",
            Code::Sum => "SUM",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_mpi_ops() {
        assert_eq!(Code::Xor.name(), "BXOR");
        assert_eq!(Code::Sum.name(), "SUM");
        assert_eq!(Code::default(), Code::Xor, "paper: XOR by default");
    }
}
