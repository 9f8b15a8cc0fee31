//! Slice-scheduling policies for the multi-tenant service.
//!
//! The service's dispatch loop maintains a *ready set* of runnable
//! tenants and asks the configured [`PolicySpec`] which one runs the
//! next slice ([`PolicySpec::next`]). Every policy is "the ready tenant
//! with the smallest key", differing only in the key, and the key is a
//! pure function of a typed snapshot ([`SchedState`]: queue ages,
//! classes, deadlines) derived from the deterministic event queue on
//! the virtual clock — so every schedule remains a pure function of
//! `(config, seed)`. Ties fall back to FIFO: ready time, then arrival.
//!
//! Four policies ship:
//!
//! * [`PolicySpec::Batched`] — sticky: keep running the tenant that ran
//!   last while it stays ready; run-to-completion emerges from
//!   stickiness without the dispatch loop special-casing it.
//! * [`PolicySpec::RoundRobin`] — FIFO by ready time: after each slice
//!   the tenant re-queues behind every other runnable tenant (PR 8's
//!   "Pipelined").
//! * [`PolicySpec::Priority`] — highest scheduling class first, with
//!   integer aging so a starved low class eventually outranks a busy
//!   high one.
//! * [`PolicySpec::Deadline`] — earliest deadline first over per-tenant
//!   deadlines ([`TenantProfile`]), with a default slack for tenants
//!   that declared none.

use skt_cluster::TenantId;
use std::fmt;
use std::time::Duration;

/// Per-tenant scheduling hints, given at registration. The profile is
/// inert under policies that don't read it — a `class` means nothing to
/// `RoundRobin`, a `deadline` nothing to `Priority`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantProfile {
    /// Scheduling class: higher runs first under [`PolicySpec::Priority`].
    pub class: u8,
    /// Absolute virtual-clock deadline under [`PolicySpec::Deadline`].
    pub deadline: Option<Duration>,
}

/// What the scheduler knows about one *runnable* tenant when a policy
/// is consulted.
#[derive(Clone, Debug)]
pub struct TenantSched {
    /// The tenant.
    pub tenant: TenantId,
    /// Scheduling class from its [`TenantProfile`].
    pub class: u8,
    /// Deadline from its [`TenantProfile`], if declared.
    pub deadline: Option<Duration>,
    /// Virtual time this tenant (re-)entered the ready set.
    pub enqueued_at: Duration,
    /// Monotonic readiness sequence — breaks `enqueued_at` ties in
    /// arrival order, so the schedule stays total and deterministic.
    pub ready_seq: u64,
}

/// Typed scheduler snapshot handed to a policy. Everything in it is
/// derived from the deterministic event queue and the virtual clock.
#[derive(Clone, Debug)]
pub struct SchedState<'a> {
    /// Current virtual time.
    pub now: Duration,
    /// Tenant that ran the most recent slice.
    pub last: Option<TenantId>,
    /// Runnable tenants. Never empty when a policy is consulted.
    pub ready: &'a [TenantSched],
}

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
    /// Highest class first; a ready tenant gains one effective class
    /// per `aging_us` microseconds waited (0 disables aging).
    Priority {
        /// Microseconds of ready-queue age per effective-class boost.
        aging_us: u64,
    },
    /// Earliest deadline first; tenants without a declared deadline get
    /// `enqueued_at + default_slack_us`.
    Deadline {
        /// Implied slack, in microseconds, for deadline-less tenants.
        default_slack_us: u64,
    },
}

impl PolicySpec {
    /// The tenant that runs the next slice: the ready tenant with the
    /// smallest `(policy key, ready time, arrival order)`. Deterministic
    /// — no clocks or randomness beyond what [`SchedState`] carries.
    ///
    /// # Panics
    /// If `state.ready` is empty; the dispatch loop never asks then.
    pub fn next(&self, state: &SchedState<'_>) -> TenantId {
        let key = |t: &TenantSched| -> u128 {
            match *self {
                // the tenant that ran last keeps the runtime while ready
                PolicySpec::Batched => u128::from(state.last != Some(t.tenant)),
                PolicySpec::RoundRobin => 0,
                PolicySpec::Priority { aging_us } => {
                    let age_us = state.now.saturating_sub(t.enqueued_at).as_micros() as u64;
                    let boost = age_us.checked_div(aging_us).unwrap_or(0);
                    u128::MAX - (u128::from(t.class) + u128::from(boost))
                }
                PolicySpec::Deadline { default_slack_us } => {
                    let implied = || t.enqueued_at + Duration::from_micros(default_slack_us);
                    t.deadline.unwrap_or_else(implied).as_nanos()
                }
            }
        };
        let ready = state.ready.iter();
        let next = ready.min_by_key(|t| (key(t), t.enqueued_at, t.ready_seq));
        next.expect("a policy is consulted only with a non-empty ready set")
            .tenant
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySpec::Batched => f.write_str("batched"),
            PolicySpec::RoundRobin => f.write_str("round-robin"),
            PolicySpec::Priority { aging_us } => write!(f, "priority(aging={aging_us}us)"),
            PolicySpec::Deadline { default_slack_us } => {
                write!(f, "deadline(slack={default_slack_us}us)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(id: u32, class: u8, enq_us: u64, seq: u64) -> TenantSched {
        TenantSched {
            tenant: TenantId(id),
            class,
            deadline: None,
            enqueued_at: Duration::from_micros(enq_us),
            ready_seq: seq,
        }
    }

    fn pick(spec: PolicySpec, now_us: u64, last: Option<u32>, ready: &[TenantSched]) -> u32 {
        let state = SchedState {
            now: Duration::from_micros(now_us),
            last: last.map(TenantId),
            ready,
        };
        spec.next(&state).0
    }

    #[test]
    fn labels_carry_the_parameter() {
        let label = PolicySpec::Priority { aging_us: 100 }.to_string();
        assert_eq!(label, "priority(aging=100us)");
        let label = PolicySpec::Deadline {
            default_slack_us: 7,
        }
        .to_string();
        assert_eq!(label, "deadline(slack=7us)");
        assert_eq!(PolicySpec::Batched.to_string(), "batched");
        assert_eq!(PolicySpec::RoundRobin.to_string(), "round-robin");
    }

    #[test]
    fn batched_is_sticky_and_starts_the_oldest_waiter() {
        let ready = [sched(0, 0, 5, 1), sched(1, 0, 0, 0)];
        // no history: oldest waiter (t1) starts
        assert_eq!(pick(PolicySpec::Batched, 10, None, &ready), 1);
        // t0 ran last and is still ready: it keeps the runtime
        assert_eq!(pick(PolicySpec::Batched, 10, Some(0), &ready), 0);
        // last tenant finished (not in the ready set): fall back to FIFO
        assert_eq!(pick(PolicySpec::Batched, 10, Some(9), &ready), 1);
    }

    #[test]
    fn round_robin_is_fifo_by_ready_time_then_arrival() {
        let table: &[(&[TenantSched], u32)] = &[
            (&[sched(0, 0, 5, 1), sched(1, 0, 3, 0)], 1),
            // enqueued_at tie: arrival sequence breaks it
            (&[sched(0, 0, 3, 7), sched(1, 0, 3, 2)], 1),
            (&[sched(2, 0, 0, 0)], 2),
        ];
        for (ready, want) in table {
            assert_eq!(pick(PolicySpec::RoundRobin, 10, Some(1), ready), *want);
        }
    }

    #[test]
    fn priority_runs_the_highest_class_first() {
        // the low-class tenant has waited longer — without aging, class
        // wins (this is the inversion the aging knob exists to bound)
        let ready = [sched(0, 1, 0, 0), sched(1, 5, 8, 1)];
        assert_eq!(
            pick(PolicySpec::Priority { aging_us: 0 }, 10, None, &ready),
            1
        );
        // class tie: FIFO
        let tie = [sched(0, 5, 8, 1), sched(1, 5, 3, 0)];
        assert_eq!(
            pick(PolicySpec::Priority { aging_us: 0 }, 10, None, &tie),
            1
        );
    }

    #[test]
    fn priority_aging_bounds_the_inversion() {
        // class 0 waits from t=0; class 5 re-arrives fresh every check.
        // With one effective class per 10us of age, the starved tenant
        // ties class 5 at 50us and the FIFO tie-break hands it the
        // runtime — starvation-free under churn, bounded by
        // `class_gap * aging_us`.
        let spec = PolicySpec::Priority { aging_us: 10 };
        let mut starved_won_at = None;
        for now in (0u64..100).step_by(10) {
            let ready = [sched(0, 0, 0, 0), sched(1, 5, now, 1)];
            if pick(spec, now, None, &ready) == 0 {
                starved_won_at = Some(now);
                break;
            }
        }
        assert_eq!(starved_won_at, Some(50), "0 + 50/10 = 5 ties, FIFO wins");
        // aging disabled: the same churn starves tenant 0 forever
        for now in (0u64..100).step_by(10) {
            let ready = [sched(0, 0, 0, 0), sched(1, 5, now, 1)];
            assert_eq!(
                pick(PolicySpec::Priority { aging_us: 0 }, now, None, &ready),
                1
            );
        }
    }

    #[test]
    fn deadline_orders_by_due_time_with_default_slack() {
        let spec = PolicySpec::Deadline {
            default_slack_us: 100,
        };
        let mut urgent = sched(0, 0, 50, 1); // implied due = 150
        let mut relaxed = sched(1, 0, 0, 0); // implied due = 100
                                             // both implied: earlier implied deadline (older waiter) first
        assert_eq!(pick(spec, 60, None, &[urgent.clone(), relaxed.clone()]), 1);
        // a declared deadline overrides the implied one
        urgent.deadline = Some(Duration::from_micros(70));
        assert_eq!(pick(spec, 60, None, &[urgent.clone(), relaxed.clone()]), 0);
        // deadline tie: FIFO arrival
        relaxed.deadline = Some(Duration::from_micros(70));
        assert_eq!(pick(spec, 60, None, &[urgent, relaxed]), 1);
    }
}
