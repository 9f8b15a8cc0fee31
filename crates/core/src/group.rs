//! Group partitioning (§3.3 of the paper).
//!
//! Large systems are split into groups of `N`; each group encodes and
//! recovers independently, so encoding cost depends on `N`, not on system
//! size. Two constraints pull in opposite directions:
//!
//! * a *large* group leaves more memory available (`(N-1)/2N → 1/2`),
//! * a *small* group encodes faster and is less likely to see two
//!   simultaneous failures.
//!
//! The paper settles on `N = 16` (47% available). Processes within one
//! group **must sit on distinct nodes**, otherwise one node loss kills
//! two stripes at once — which exhausts the single-parity budget
//! immediately, and burns both erasures of the dual P+Q codec on a
//! single node. With an `m`-parity codec (`CodecSpec`, DESIGN.md §5e)
//! the trade-off generalizes: availability becomes `(N-m)/2N` and a
//! group survives any `m` node losses, so doubling `m` is an
//! alternative to shrinking `N` when simultaneous-failure risk grows.
//!
//! A group is `gsize` neighbouring ranks — ranks `g·i .. g·(i+1)` form
//! group `i`, the performance-first choice of §3.3 — and round-robin
//! rank placement puts neighbours on distinct nodes;
//! [`validate_node_distinct`] refuses a placement that does not.

use skt_cluster::Ranklist;

/// Group color of `rank` among `nranks` with group size `gsize`: ranks
/// `g·i .. g·(i+1)` form group `i`. Use as the `color` of a communicator
/// split. Requires `gsize` to divide `nranks` (HPL launches are sized
/// that way; ragged tail groups would weaken the reliability analysis).
pub fn group_color(rank: usize, nranks: usize, gsize: usize) -> u64 {
    assert!(gsize >= 2, "group size must be >= 2");
    assert_eq!(nranks % gsize, 0, "group size must divide rank count");
    (rank / gsize) as u64
}

/// Group size for a *resized* world of `new_nranks` ranks, given the
/// old world's `(old_nranks, old_gsize)` and the codec's parity count
/// `m`. Keeps the old group size when it still divides the new rank
/// count; a world that ran as one whole group stays one whole group; a
/// rank count the old size no longer divides falls back to a single
/// whole-world group. Returns `None` when no legal size exists — a
/// group needs strictly more members than parity stripes (`n > m`) and
/// at least two, so shrinking below `max(2, m + 1)` ranks is refused
/// here, typed, before any node moves.
pub fn resize_group_size(
    old_nranks: usize,
    old_gsize: usize,
    new_nranks: usize,
    m: usize,
) -> Option<usize> {
    let min = (m + 1).max(2);
    let g = if old_gsize != old_nranks && new_nranks.is_multiple_of(old_gsize) {
        old_gsize
    } else {
        new_nranks
    };
    (g >= min).then_some(g)
}

/// Verify that no two members of any group share a node — the §3.3
/// requirement for tolerating a permanent node loss. Returns the first
/// violating `(group, node)` pair as an error.
pub fn validate_node_distinct(ranklist: &Ranklist, gsize: usize) -> Result<(), (u64, usize)> {
    let nranks = ranklist.len();
    let ngroups = nranks / gsize;
    let mut seen: Vec<Vec<usize>> = vec![Vec::new(); ngroups];
    for r in 0..nranks {
        let g = group_color(r, nranks, gsize) as usize;
        let node = ranklist.node_of(r);
        if seen[g].contains(&node) {
            return Err((g as u64, node));
        }
        seen[g].push(node);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_groups_are_blocks() {
        assert_eq!(group_color(0, 8, 4), 0);
        assert_eq!(group_color(3, 8, 4), 0);
        assert_eq!(group_color(4, 8, 4), 1);
    }

    #[test]
    fn every_group_gets_exactly_gsize_members() {
        let (nranks, g) = (24, 4);
        let mut counts = vec![0usize; nranks / g];
        for r in 0..nranks {
            counts[group_color(r, nranks, g) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == g), "{counts:?}");
    }

    #[test]
    fn round_robin_placement_with_contiguous_groups_is_node_distinct() {
        // 16 ranks on 8 nodes, 2 ranks per node, groups of 8.
        let rl = Ranklist::round_robin(16, 8);
        validate_node_distinct(&rl, 8).unwrap();
    }

    #[test]
    fn block_placement_with_contiguous_groups_is_rejected() {
        // 16 ranks two to a node: ranks 0 and 1 share node 0 and a group
        // -> one node loss kills two stripes.
        let rl = Ranklist::explicit((0..16).map(|r| r / 2).collect());
        let err = validate_node_distinct(&rl, 8).unwrap_err();
        assert_eq!(err, (0, 0));
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn ragged_groups_rejected() {
        group_color(0, 10, 4);
    }
}
