//! Stripe/slot geometry of the group encoding (paper Figure 1),
//! generalized to `m` parity stripes per slot.
//!
//! A group has `N` ranks and `N` *slots*. With a codec of parity count
//! `m`, rank `r`'s local data is split into `N-m` stripes and the `m`
//! parity stripes of slot `s` live round-robin on the ranks
//! `{s, s+1, …, s+m-1} (mod N)` — role `i` of slot `s` on rank
//! `(s+i) mod N`. A rank therefore guards exactly one parity role of
//! `m` different slots and contributes data to the remaining `N-m`
//! slots, so encoding traffic stays spread over all ranks (the
//! rotating-parity placement of RAID-5 at `m = 1`, RAID-6 at `m = 2`).
//!
//! At `m = 1` this reduces exactly to the paper's layout: stripes in
//! the slots `{0..N} \ {r}`, parity of slot `r` on rank `r`.

use std::ops::Range;

/// Geometry for one group member's data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupLayout {
    n: usize,
    m: usize,
    data_len: usize,
    stripe_len: usize,
}

impl GroupLayout {
    /// Single-parity layout (`m = 1`) for a group of `n >= 2` ranks each
    /// holding `data_len` elements. Data is padded (conceptually with
    /// zeros) to a multiple of `n - 1`.
    #[must_use]
    pub fn new(n: usize, data_len: usize) -> Self {
        Self::new_with_parity(n, 1, data_len)
    }

    /// Layout with `m >= 1` parity stripes per slot for a group of
    /// `n >= m + 1` ranks each holding `data_len` elements. Data is
    /// padded (conceptually with zeros) to a multiple of `n - m`.
    #[must_use]
    pub fn new_with_parity(n: usize, m: usize, data_len: usize) -> Self {
        assert!(m >= 1, "at least one parity stripe");
        assert!(
            n > m,
            "group must have at least m + 1 = {} ranks, got {n}",
            m + 1
        );
        let stripe_len = data_len.div_ceil(n - m);
        GroupLayout {
            n,
            m,
            data_len,
            stripe_len,
        }
    }

    /// Group size `N`.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.n
    }

    /// Parity stripes per slot, `m` (the codec's correction capability).
    #[must_use]
    pub fn parity_count(&self) -> usize {
        self.m
    }

    /// Unpadded per-rank data length.
    #[must_use]
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Stripe length (= length of one checksum stripe):
    /// `ceil(data_len / (N-m))`.
    #[must_use]
    pub fn stripe_len(&self) -> usize {
        self.stripe_len
    }

    /// Padded data length every rank must allocate: `stripe_len * (N-m)`.
    #[must_use]
    pub fn padded_len(&self) -> usize {
        self.stripe_len * (self.n - self.m)
    }

    /// Number of data stripes per rank: `N-m`.
    #[must_use]
    pub fn stripes_per_rank(&self) -> usize {
        self.n - self.m
    }

    /// Total parity elements a rank stores: one stripe per role,
    /// `m * stripe_len`.
    #[must_use]
    pub fn parity_len(&self) -> usize {
        self.m * self.stripe_len
    }

    /// Element range of parity role `i` within a rank's parity segment.
    #[must_use]
    pub fn parity_range(&self, role: usize) -> Range<usize> {
        assert!(role < self.m);
        role * self.stripe_len..(role + 1) * self.stripe_len
    }

    /// Whether rank `r` holds a parity role (rather than data) in slot
    /// `s`: true iff `r ∈ {s, …, s+m-1} (mod N)`.
    #[must_use]
    pub fn is_parity_owner(&self, r: usize, s: usize) -> bool {
        assert!(r < self.n && s < self.n);
        (r + self.n - s) % self.n < self.m
    }

    /// Whether rank `r` contributes a *data* stripe to slot `s`.
    #[must_use]
    pub fn contributes(&self, r: usize, s: usize) -> bool {
        !self.is_parity_owner(r, s)
    }

    /// The rank storing parity role `i` of slot `s`: `(s + i) mod N`.
    #[must_use]
    pub fn parity_owner(&self, s: usize, role: usize) -> usize {
        assert!(s < self.n && role < self.m);
        (s + role) % self.n
    }

    /// The slot whose parity role `i` rank `r` stores: `(r - i) mod N`.
    #[must_use]
    pub fn parity_slot(&self, r: usize, role: usize) -> usize {
        assert!(r < self.n && role < self.m);
        (r + self.n - role) % self.n
    }

    /// Slot that rank `r`'s data stripe `k` (`k < N-m`) occupies: the
    /// `k`-th slot, in ascending order, that `r` contributes to.
    #[must_use]
    pub fn slot_of_stripe(&self, r: usize, k: usize) -> usize {
        assert!(r < self.n && k < self.n - self.m);
        (0..self.n)
            .filter(|&s| self.contributes(r, s))
            .nth(k)
            .expect("k < stripes_per_rank")
    }

    /// Data stripe of rank `r` living in slot `s`, or `None` when rank
    /// `r` holds a parity role of `s` instead.
    #[must_use]
    pub fn stripe_of_slot(&self, r: usize, s: usize) -> Option<usize> {
        assert!(r < self.n && s < self.n);
        if !self.contributes(r, s) {
            return None;
        }
        Some((0..s).filter(|&t| self.contributes(r, t)).count())
    }

    /// Codeword position of rank `r` within slot `s` — its index among
    /// the slot's contributors in ascending rank order — or `None` when
    /// `r` does not contribute data to `s`. This is the `i` of the
    /// codec's `g^i`-style coefficients.
    #[must_use]
    pub fn codeword_pos(&self, r: usize, s: usize) -> Option<usize> {
        if !self.contributes(r, s) {
            return None;
        }
        Some((0..r).filter(|&t| self.contributes(t, s)).count())
    }

    /// Element range of stripe `k` within the padded data buffer.
    #[must_use]
    pub fn stripe_range(&self, k: usize) -> Range<usize> {
        assert!(k < self.n - self.m);
        k * self.stripe_len..(k + 1) * self.stripe_len
    }

    /// Borrow stripe `k` from a padded data buffer.
    pub fn stripe<'a>(&self, data: &'a [f64], k: usize) -> &'a [f64] {
        assert_eq!(data.len(), self.padded_len(), "data must be padded");
        &data[self.stripe_range(k)]
    }

    /// The ranks contributing data to slot `s`, in ascending order (the
    /// codeword order).
    pub fn contributors(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(s < self.n);
        (0..self.n).filter(move |&r| self.contributes(r, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_len_is_ceil() {
        let l = GroupLayout::new(4, 10);
        assert_eq!(l.stripe_len(), 4); // ceil(10/3)
        assert_eq!(l.padded_len(), 12);
        let exact = GroupLayout::new(4, 9);
        assert_eq!(exact.stripe_len(), 3);
        assert_eq!(exact.padded_len(), 9);
    }

    #[test]
    fn checksum_is_fraction_of_data() {
        // A checksum is 1/(N-1) of the (padded) data — the memory claim
        // behind Table 1.
        let l = GroupLayout::new(16, 15 * 1000);
        assert_eq!(l.stripe_len() * 15, l.padded_len());
        assert_eq!(l.stripe_len(), 1000);
    }

    #[test]
    fn slot_assignment_skips_own_rank() {
        let l = GroupLayout::new(4, 9);
        // rank 1's stripes occupy slots 0, 2, 3
        assert_eq!(l.slot_of_stripe(1, 0), 0);
        assert_eq!(l.slot_of_stripe(1, 1), 2);
        assert_eq!(l.slot_of_stripe(1, 2), 3);
        // inverse
        assert_eq!(l.stripe_of_slot(1, 0), Some(0));
        assert_eq!(l.stripe_of_slot(1, 1), None);
        assert_eq!(l.stripe_of_slot(1, 2), Some(1));
        assert_eq!(l.stripe_of_slot(1, 3), Some(2));
    }

    #[test]
    fn slot_and_stripe_are_inverse_bijections() {
        for n in 2..=8 {
            let l = GroupLayout::new(n, 21);
            for r in 0..n {
                for k in 0..n - 1 {
                    let s = l.slot_of_stripe(r, k);
                    assert_ne!(s, r, "a rank never stores data in its parity slot");
                    assert_eq!(l.stripe_of_slot(r, s), Some(k));
                }
                assert_eq!(l.stripe_of_slot(r, r), None);
            }
        }
    }

    #[test]
    fn every_slot_has_n_minus_1_contributors() {
        let l = GroupLayout::new(5, 8);
        for s in 0..5 {
            let c: Vec<usize> = l.contributors(s).collect();
            assert_eq!(c.len(), 4);
            assert!(!c.contains(&s));
        }
    }

    #[test]
    fn stripe_slices_partition_padded_data() {
        let l = GroupLayout::new(3, 5); // stripe_len 3, padded 6
        let data: Vec<f64> = (0..6).map(|i| i as f64).collect();
        assert_eq!(l.stripe(&data, 0), &[0.0, 1.0, 2.0]);
        assert_eq!(l.stripe(&data, 1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "padded")]
    fn unpadded_data_rejected() {
        let l = GroupLayout::new(3, 5);
        let data = vec![0.0; 5];
        l.stripe(&data, 0);
    }

    #[test]
    fn single_parity_owner_is_the_slot_rank() {
        // m = 1 must reproduce the paper's placement exactly.
        let l = GroupLayout::new(6, 10);
        assert_eq!(l.parity_count(), 1);
        for s in 0..6 {
            assert_eq!(l.parity_owner(s, 0), s);
            assert_eq!(l.parity_slot(s, 0), s);
        }
        assert_eq!(l.parity_len(), l.stripe_len());
        assert_eq!(l.parity_range(0), 0..l.stripe_len());
    }

    #[test]
    fn dual_parity_roles_rotate_round_robin() {
        let l = GroupLayout::new_with_parity(5, 2, 12);
        assert_eq!(l.stripes_per_rank(), 3);
        assert_eq!(l.stripe_len(), 4); // ceil(12/3)
        assert_eq!(l.padded_len(), 12);
        assert_eq!(l.parity_len(), 8);
        for s in 0..5 {
            // role 0 (P) on rank s, role 1 (Q) on rank s+1
            assert_eq!(l.parity_owner(s, 0), s);
            assert_eq!(l.parity_owner(s, 1), (s + 1) % 5);
            let c: Vec<usize> = l.contributors(s).collect();
            assert_eq!(c.len(), 3);
            assert!(!c.contains(&s));
            assert!(!c.contains(&((s + 1) % 5)));
        }
        // rank 2 guards P of slot 2 and Q of slot 1
        assert_eq!(l.parity_slot(2, 0), 2);
        assert_eq!(l.parity_slot(2, 1), 1);
    }

    #[test]
    fn dual_parity_stripe_maps_are_inverse_bijections() {
        for n in 3..=8 {
            let l = GroupLayout::new_with_parity(n, 2, 30);
            for r in 0..n {
                let mut slots = Vec::new();
                for k in 0..l.stripes_per_rank() {
                    let s = l.slot_of_stripe(r, k);
                    assert!(l.contributes(r, s));
                    assert_eq!(l.stripe_of_slot(r, s), Some(k));
                    slots.push(s);
                }
                // data slots + 2 parity slots cover every slot exactly once
                slots.push(l.parity_slot(r, 0));
                slots.push(l.parity_slot(r, 1));
                slots.sort_unstable();
                assert_eq!(slots, (0..n).collect::<Vec<_>>(), "rank {r}");
            }
        }
    }

    #[test]
    fn codeword_positions_are_dense_and_ordered() {
        for (n, m) in [(4, 1), (5, 2), (7, 2), (4, 3)] {
            let l = GroupLayout::new_with_parity(n, m, 2 * (n - m));
            for s in 0..n {
                let pos: Vec<usize> = l
                    .contributors(s)
                    .map(|r| l.codeword_pos(r, s).unwrap())
                    .collect();
                assert_eq!(pos, (0..n - m).collect::<Vec<_>>(), "slot {s}");
                for r in 0..n {
                    if !l.contributes(r, s) {
                        assert_eq!(l.codeword_pos(r, s), None);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least m + 1")]
    fn group_smaller_than_codeword_rejected() {
        let _ = GroupLayout::new_with_parity(2, 2, 8);
    }
}
