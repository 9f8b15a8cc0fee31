//! The level-1 BLAS kernel LU needs, on a contiguous (unit-stride) `f64`
//! slice.
//!
//! HPL only ever touches unit-stride column vectors (column-major storage),
//! so the stride argument of reference BLAS is omitted.

/// Index of the element with the largest absolute value; `None` for an
/// empty slice. Ties resolve to the lowest index, matching BLAS `idamax`.
pub fn idamax(x: &[f64]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut bestv = x[0].abs();
    for (i, v) in x.iter().enumerate().skip(1) {
        let a = v.abs();
        if a > bestv {
            best = i;
            bestv = a;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idamax_finds_largest_magnitude() {
        assert_eq!(idamax(&[1.0, -5.0, 3.0]), Some(1));
        assert_eq!(idamax(&[]), None);
        // ties resolve to the first occurrence
        assert_eq!(idamax(&[2.0, -2.0]), Some(0));
    }
}
