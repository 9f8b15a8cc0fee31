//! Slice-scheduling policies for the multi-tenant service.
//!
//! The service's dispatch loop keeps a *ready set* of runnable tenants
//! in the order they became ready, and asks the configured
//! [`PolicySpec`] which one runs the next slice ([`PolicySpec::next`]).
//! A tenant becomes ready through an event pushed at the current
//! virtual time, and the event queue pops by `(time, sequence)`, so the
//! ready set is FIFO by construction and every schedule remains a pure
//! function of `(config, seed)`.
//!
//! Two policies ship:
//!
//! * [`PolicySpec::Batched`] — sticky: keep running the tenant that ran
//!   last while it stays ready, else start the front of the ready set;
//!   run-to-completion emerges from stickiness without the dispatch
//!   loop special-casing it.
//! * [`PolicySpec::RoundRobin`] — the front of the ready set: after each
//!   slice the tenant re-queues behind every other runnable tenant.

use crate::ledger::TenantId;
use std::fmt;

/// A slice-scheduling policy: plain data (`Copy`, comparable, storable
/// in configs). [`PolicySpec::next`] is the whole implementation, and
/// `Display` gives the stable label for fingerprints and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum PolicySpec {
    /// Sticky run-to-completion (the classic batch queue).
    #[default]
    Batched,
    /// FIFO round-robin over ready tenants.
    RoundRobin,
}

impl PolicySpec {
    /// The tenant that runs the next slice, out of `ready` (runnable
    /// tenants, in the order they became ready) given the tenant that
    /// ran `last`.
    ///
    /// # Panics
    /// If `ready` is empty; the dispatch loop never asks then.
    pub fn next(&self, ready: &[TenantId], last: Option<TenantId>) -> TenantId {
        match (self, last) {
            // the tenant that ran last keeps the runtime while ready
            (PolicySpec::Batched, Some(last)) if ready.contains(&last) => last,
            _ => *ready
                .first()
                .expect("a policy is consulted only with a non-empty ready set"),
        }
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PolicySpec::Batched => "batched",
            PolicySpec::RoundRobin => "round-robin",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pick(spec: PolicySpec, ready: &[u32], last: Option<u32>) -> u32 {
        let ready: Vec<TenantId> = ready.iter().copied().map(TenantId).collect();
        spec.next(&ready, last.map(TenantId)).0
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PolicySpec::Batched.to_string(), "batched");
        assert_eq!(PolicySpec::RoundRobin.to_string(), "round-robin");
    }

    #[test]
    fn batched_is_sticky_while_the_last_tenant_is_ready() {
        assert_eq!(pick(PolicySpec::Batched, &[1, 0], Some(0)), 0);
        assert_eq!(pick(PolicySpec::Batched, &[2, 0, 1], Some(1)), 1);
    }

    #[test]
    fn round_robin_takes_the_front_of_the_ready_set() {
        // the tenant that ran last re-queued behind the others
        assert_eq!(pick(PolicySpec::RoundRobin, &[1, 0], Some(0)), 1);
        assert_eq!(pick(PolicySpec::RoundRobin, &[2, 0, 1], None), 2);
        assert_eq!(pick(PolicySpec::RoundRobin, &[2], Some(2)), 2);
    }

    #[test]
    fn batched_falls_back_to_the_front_without_a_ready_last_tenant() {
        // the last tenant finished (not in the ready set)
        assert_eq!(pick(PolicySpec::Batched, &[1, 0], Some(9)), 1);
        // no history: the oldest waiter starts
        assert_eq!(pick(PolicySpec::Batched, &[1, 0], None), 1);
    }
}
