//! Memory accounting (§3.2 of the paper: Table 1 and Equations 2–4).
//!
//! With group size `N` and per-rank application data `M`:
//!
//! | method  | in-memory parts                        | available fraction |
//! |---------|----------------------------------------|--------------------|
//! | single  | `A=M, B=M, C=M/(N-1)`                  | `(N-1)/(2N-1)`     |
//! | double  | `A=M, 2×(B=M, C=M/(N-1))`              | `(N-1)/(3N-1)`     |
//! | self    | `A=M, B=M, C=M/(N-1), D=M/(N-1)`       | `(N-1)/(2N)`       |
//!
//! Only the self-checkpoint is both fully fault tolerant *and* close to
//! the 50% upper bound.
//!
//! With an erasure code carrying `m` parity stripes per group (e.g. the
//! dual P+Q codec, `m = 2`), each checksum copy grows to `mM/(N-m)` and
//! the fractions generalise to `(N-m)/(2N)` (self), `(N-m)/(2N-m)`
//! (single) and `(N-m)/(3N-m)` (double); `m = 1` reproduces the table
//! above exactly.
//!
//! The code restates neither table: both are read off the method's row
//! in `protocol::table`. With `k` checkpoint copies besides the workspace
//! and `p` checksum copies, a rank keeps `(1+k)M + p·mM/(N-m)` and the
//! application gets `(N-m)/((1+k)(N-m) + p·m)` — the three forms above,
//! bit for bit in `f64`, because every term is a small integer.

use crate::protocol::table::MethodTable;
use skt_cluster::Region;

/// Checkpoint method selector, shared across the workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// One checkpoint + one checksum. Cheapest, but cannot recover from a
    /// failure during checkpoint update (paper Figure 2).
    Single,
    /// Two full checkpoint copies + two checksums (SCR-in-RAM / buddy
    /// style). Fully fault tolerant, wastes most memory (Figure 3).
    Double,
    /// The paper's contribution: one checkpoint + two checksums, with
    /// the workspace itself doubling as a checkpoint (Figures 4–5).
    SelfCkpt,
}

impl Method {
    /// Human-readable name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Method::Single => "single-checkpoint",
            Method::Double => "double-checkpoint",
            Method::SelfCkpt => "self-checkpoint",
        }
    }
}

/// Fraction of total memory left for the application (Equations 2–4):
/// the breakdown's ratio at `M = n - 1`, where every checksum stripe is
/// whole.
pub fn available_fraction(method: Method, n: usize) -> f64 {
    MemoryBreakdown::new(method, n - 1, n).available()
}

/// Per-part memory of one rank, in `f64` elements (Table 1 uses abstract
/// units `M`; we use element counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Application data `A1+A2` (`= M`).
    pub a: usize,
    /// Full checkpoint copies (`B`, or `B+b` for double).
    pub checkpoints: usize,
    /// Checksum copies (`C`, `D`, or `C+c`).
    pub checksums: usize,
}

impl MemoryBreakdown {
    /// Breakdown for a given method, workspace size `m` (elements) and
    /// group size `n`. Checksums are `ceil(m/(n-1))` as in the stripe
    /// layout.
    pub fn new(method: Method, m: usize, n: usize) -> Self {
        Self::with_parity(method, m, n, 1)
    }

    /// [`MemoryBreakdown::new`] generalised to `parity` stripes per
    /// group: each checksum copy holds `parity * ceil(m/(n-parity))`
    /// elements, matching the erasure-codec stripe layout. The copies
    /// are the regions of the method's table row.
    pub fn with_parity(method: Method, m: usize, n: usize, parity: usize) -> Self {
        assert!(parity >= 1, "need at least one parity stripe");
        assert!(n > parity, "group needs at least one data stripe");
        let checksum = parity * m.div_ceil(n - parity);
        let mut b = MemoryBreakdown {
            a: m,
            checkpoints: 0,
            checksums: 0,
        };
        for (region, is_checksum) in MethodTable::of(method).regions() {
            match (region, is_checksum) {
                (Region::Work, _) => {}
                (_, true) => b.checksums += checksum,
                (_, false) => b.checkpoints += m,
            }
        }
        b
    }

    /// Total elements consumed.
    pub fn total(&self) -> usize {
        self.a + self.checkpoints + self.checksums
    }

    /// Fraction of the total that the application can use.
    pub fn available(&self) -> f64 {
        self.a as f64 / self.total() as f64
    }
}

/// Largest workspace (in `f64` elements) that fits a per-rank memory
/// budget of `budget_bytes` under `method` with group size `n` — i.e.
/// invert [`MemoryBreakdown::total`]. This is how Table 3 sizes each
/// method's HPL problem for a fair comparison.
pub fn max_workspace_len(method: Method, n: usize, budget_bytes: usize) -> usize {
    let budget = budget_bytes / std::mem::size_of::<f64>();
    // total(m) is monotone in m; binary search the largest fitting m.
    let (mut lo, mut hi) = (0usize, budget);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if MemoryBreakdown::new(method, mid, n).total() <= budget {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    const METHODS: [Method; 3] = [Method::Single, Method::Double, Method::SelfCkpt];

    /// The paper's closed forms (Equations 2–4 at `m = 1`) and their
    /// `m`-parity generalisation: the oracle the table-derived
    /// accounting is checked against.
    fn closed_form(method: Method, n: usize, m: usize) -> f64 {
        let (n, m) = (n as f64, m as f64);
        match method {
            Method::SelfCkpt => (n - m) / (2.0 * n),
            Method::Double => (n - m) / (3.0 * n - m),
            Method::Single => (n - m) / (2.0 * n - m),
        }
    }

    /// The available fraction under `m` parity stripes: the breakdown's
    /// ratio at `M = n - m`, where every checksum stripe is whole.
    fn fraction_with_parity(method: Method, n: usize, m: usize) -> f64 {
        MemoryBreakdown::with_parity(method, n - m, n, m).available()
    }

    #[test]
    fn equations_at_group_16_match_the_paper() {
        // §3.3: "The available memory of a group with 16 processes is 47%".
        let f = available_fraction(Method::SelfCkpt, 16);
        assert!((f - 0.46875).abs() < 1e-12, "self@16 = {f}");
        // double checkpoint is below 1/3 + eps (paper: "only 1/3 of memory left")
        let d = available_fraction(Method::Double, 16);
        assert!((d - 15.0 / 47.0).abs() < 1e-12);
        assert!(d < 0.32);
        let s = available_fraction(Method::Single, 16);
        assert!((s - 15.0 / 31.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_single_above_self_above_double() {
        for n in [2, 3, 4, 8, 16, 32] {
            let single = available_fraction(Method::Single, n);
            let selfc = available_fraction(Method::SelfCkpt, n);
            let double = available_fraction(Method::Double, n);
            assert!(single > selfc, "n={n}");
            assert!(selfc > double, "n={n}");
        }
    }

    #[test]
    fn self_checkpoint_approaches_half() {
        assert!(available_fraction(Method::SelfCkpt, 1024) > 0.499);
        assert!(available_fraction(Method::SelfCkpt, 2) == 0.25);
    }

    #[test]
    fn breakdown_total_matches_closed_form() {
        // Table 1: total = 2MN/(N-1) for the self-checkpoint.
        let (m, n) = (1500, 16); // m divisible by n-1
        let b = MemoryBreakdown::new(Method::SelfCkpt, m, n);
        assert_eq!(b.total(), 2 * m * n / (n - 1));
        assert_eq!(b.checksums, 2 * m / (n - 1));
        assert!((b.available() - available_fraction(Method::SelfCkpt, n)).abs() < 1e-12);
    }

    #[test]
    fn breakdown_available_matches_equations_for_all_methods() {
        let (m, n) = (3000, 4); // divisible by n-1
        for method in METHODS {
            let b = MemoryBreakdown::new(method, m, n);
            let expect = available_fraction(method, n);
            assert!(
                (b.available() - expect).abs() < 1e-12,
                "{}: {} vs {}",
                method.name(),
                b.available(),
                expect
            );
        }
    }

    #[test]
    fn max_workspace_len_is_tight() {
        let budget = 64 << 20; // 64 MiB
        for method in METHODS {
            for n in [2, 8, 16] {
                let m = max_workspace_len(method, n, budget);
                let fits = MemoryBreakdown::new(method, m, n).total() * 8;
                let over = MemoryBreakdown::new(method, m + 1, n).total() * 8;
                assert!(fits <= budget, "{} n={n}", method.name());
                assert!(over > budget, "{} n={n} not tight", method.name());
            }
        }
    }

    #[test]
    fn self_beats_double_by_about_47_percent_at_group_16() {
        // Abstract claim: 47% more memory than the state of the art.
        let selfc = available_fraction(Method::SelfCkpt, 16);
        let double = available_fraction(Method::Double, 16);
        let gain = selfc / double - 1.0;
        assert!(gain > 0.4 && gain < 0.55, "gain = {gain}");
    }

    #[test]
    fn parity_one_reproduces_the_paper_equations() {
        for method in METHODS {
            for n in [2, 4, 16, 32] {
                let base = available_fraction(method, n);
                let gen = fraction_with_parity(method, n, 1);
                assert!((base - gen).abs() < 1e-15, "{} n={n}", method.name());
            }
        }
    }

    #[test]
    fn dual_parity_fractions_match_closed_forms() {
        // m = 2: self (n-2)/(2n), single (n-2)/(2n-2), double (n-2)/(3n-2).
        let n = 16.0;
        let f = fraction_with_parity(Method::SelfCkpt, 16, 2);
        assert!((f - (n - 2.0) / (2.0 * n)).abs() < 1e-12);
        let s = fraction_with_parity(Method::Single, 16, 2);
        assert!((s - (n - 2.0) / (2.0 * n - 2.0)).abs() < 1e-12);
        let d = fraction_with_parity(Method::Double, 16, 2);
        assert!((d - (n - 2.0) / (3.0 * n - 2.0)).abs() < 1e-12);
        // the second stripe costs a little memory, never more than 1/n extra
        assert!(f < available_fraction(Method::SelfCkpt, 16));
        assert!(f > available_fraction(Method::SelfCkpt, 16) - 1.0 / n);
    }

    #[test]
    fn dual_parity_breakdown_matches_its_fraction() {
        let (m, n) = (2800, 16); // divisible by n-2
        for method in METHODS {
            let b = MemoryBreakdown::with_parity(method, m, n, 2);
            let expect = fraction_with_parity(method, n, 2);
            assert!(
                (b.available() - expect).abs() < 1e-12,
                "{}: {} vs {}",
                method.name(),
                b.available(),
                expect
            );
        }
        // checksum copies each hold two stripes of ceil(m/(n-2)) elements
        let b = MemoryBreakdown::with_parity(Method::SelfCkpt, m, n, 2);
        assert_eq!(b.checksums, 2 * (2 * m / (n - 2)));
    }

    #[test]
    fn table_derived_fractions_match_the_closed_forms_bit_for_bit() {
        for n in 2..=32usize {
            for m in 1..n {
                for method in METHODS {
                    let got = fraction_with_parity(method, n, m);
                    let want = closed_form(method, n, m);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} n={n} m={m}: {got} vs {want}",
                        method.name()
                    );
                }
            }
            for method in METHODS {
                let got = available_fraction(method, n);
                assert_eq!(got.to_bits(), closed_form(method, n, 1).to_bits());
            }
        }
    }

    #[test]
    fn general_parity_breakdowns_match_their_fractions_for_m_1_through_4() {
        for parity in 1..=4usize {
            // workspace divisible by (n - m) so ceil() is exact and the
            // breakdown lands on the closed form to full precision
            let n = 16;
            let m = 27720 / (n - parity) * (n - parity);
            for method in METHODS {
                let b = MemoryBreakdown::with_parity(method, m, n, parity);
                let expect = fraction_with_parity(method, n, parity);
                assert!(
                    (b.available() - expect).abs() < 1e-12,
                    "{} m={parity}: {} vs {expect}",
                    method.name(),
                    b.available()
                );
            }
            // each checksum copy holds `parity` stripes of m/(n-parity)
            let b = MemoryBreakdown::with_parity(Method::SelfCkpt, m, n, parity);
            assert_eq!(b.checksums, 2 * parity * (m / (n - parity)));
            assert_eq!(b.checkpoints, m);
        }
    }

    #[test]
    fn more_parity_always_costs_memory_but_stays_bounded() {
        // Within one group size the available fraction is strictly
        // decreasing in m — each extra tolerated failure costs stripes —
        // and self-checkpoint keeps (n-m)/(2n) ≥ (n-m)/(2n) exactly.
        let n = 16;
        for method in METHODS {
            let mut prev = f64::INFINITY;
            for parity in 1..=4 {
                let f = fraction_with_parity(method, n, parity);
                assert!(f < prev, "{} m={parity} not decreasing", method.name());
                assert!(f > 0.0);
                prev = f;
            }
        }
        // m = 3 at n = 16 still leaves the self method > 40% available
        assert!(fraction_with_parity(Method::SelfCkpt, 16, 3) > 0.40);
    }
}
