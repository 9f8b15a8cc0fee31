//! `hpl_skt`: the paper's own unit. `linalg`/`hpl` do most of the work
//! and the checkpoint stack a minority share, so a codec or engine gain
//! must show here only in proportion to `hpl.ckpt_share`.
//!
//! The timed operation is `run_skt` through `run_on_cluster`, on a fresh
//! cluster each time (a second `run_skt` on the same cluster would
//! resume from the first one's last checkpoint). The traced pass runs
//! each repetition as a triple at the same `N` — `run_plain`, `run_skt`,
//! `run_skt` with checkpoints off — for the efficiency ratios.

use super::{observe, Checks, Session, RANKS};
use crate::host::{timed, Timed};
use crate::trace::{scoped, Tracer};
use skt_cluster::{Cluster, ClusterConfig, Ranklist};
use skt_hpl::{run_plain, run_skt, BlockCyclic1D, HplConfig, HplOutput, SktConfig};
use skt_mps::{run_on_cluster, Ctx, Fault};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const N: usize = 2304;
pub const NB: usize = 32;
/// Checkpoint every 18 of the 72 panels: 3 checkpoints, as
/// `table3_comparison`.
pub const CKPT_EVERY: usize = 18;
pub const CHECKPOINTS: usize = 3;

/// Rank 0's workspace length, `f64` elements.
pub fn alloc_len() -> usize {
    BlockCyclic1D::new(N, NB, RANKS, 0).alloc_len()
}

/// One repetition's outputs.
#[derive(Clone, Debug)]
pub struct Rep {
    /// `run_skt` via `run_on_cluster`.
    pub solve: Timed,
    pub skt: HplOutput,
    /// Traced pass only: `run_plain` at the same `N`.
    pub plain: Option<HplOutput>,
    /// Traced pass only: `run_skt` with `ckpt_every = 0`.
    pub nockpt: Option<HplOutput>,
}

/// Run `f` on every rank of a fresh 4-node cluster; rank 0's output and
/// the wall time of the launch.
fn launch(
    tracer: Option<&Arc<Tracer>>,
    name: &str,
    f: impl Fn(&Ctx) -> Result<HplOutput, Fault> + Send + Sync,
) -> Result<(HplOutput, Timed), Fault> {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(RANKS, 0)));
    observe(&cluster, tracer);
    let rl = Ranklist::round_robin(RANKS, RANKS);
    // phases and collectives arrive on threads run_on_cluster spawns
    let (outs, wall) = scoped(tracer, name, true, || {
        timed(|| run_on_cluster(cluster, &rl, f))
    });
    Ok((outs?[0], wall))
}

fn skt_config(seed: u64, ckpt_every: usize) -> SktConfig {
    SktConfig::new(HplConfig::new(N, NB, seed), RANKS, ckpt_every)
}

fn repetition(seed: u64, tracer: Option<&Arc<Tracer>>, checks: &mut Checks) -> Result<Rep, Fault> {
    let result = scoped(tracer, "repetition", false, || {
        let plain = match tracer {
            Some(_) => {
                let hpl = HplConfig::new(N, NB, seed);
                Some(launch(tracer, "run_plain", |ctx| run_plain(ctx, &hpl))?.0)
            }
            None => None,
        };
        let cfg = skt_config(seed, CKPT_EVERY);
        let (skt, solve) = launch(tracer, "run_skt", |ctx| run_skt(ctx, &cfg).map(|o| o.hpl))?;
        let nockpt = match tracer {
            Some(_) => {
                let cfg = skt_config(seed, 0);
                Some(
                    launch(tracer, "run_skt_nockpt", |ctx| {
                        run_skt(ctx, &cfg).map(|o| o.hpl)
                    })?
                    .0,
                )
            }
            None => None,
        };
        Ok(Rep {
            solve,
            skt,
            plain,
            nockpt,
        })
    });
    match &result {
        Ok(r) => {
            checks.check(r.skt.passed && r.skt.checkpoints == CHECKPOINTS, || {
                format!(
                    "run_skt: passed={} residual={} checkpoints={}",
                    r.skt.passed, r.skt.residual, r.skt.checkpoints
                )
            });
            for (name, o) in [("run_plain", &r.plain), ("run_skt_nockpt", &r.nockpt)] {
                if let Some(o) = o {
                    checks.check(o.passed && o.checkpoints == 0, || {
                        format!("{name}: passed={} residual={}", o.passed, o.residual)
                    });
                }
            }
        }
        Err(f) => checks.check(false, || format!("hpl repetition faulted: {f}")),
    }
    result
}

pub fn session(
    seed: u64,
    budget: Option<Duration>,
    tracer: Option<&Arc<Tracer>>,
    checks: &mut Checks,
) -> Session {
    let mut s = Session::default();
    let t_setup = Instant::now();
    // Warm-up: one untraced solve (page faults, allocator growth).
    if repetition(seed, None, checks).is_err() {
        return s;
    }
    s.setup_s = t_setup.elapsed().as_secs_f64();
    let t_loop = Instant::now();
    while budget.is_some_and(|b| t_loop.elapsed() < b) {
        let Ok(rep) = repetition(seed, tracer, checks) else {
            break;
        };
        s.ops.push(rep.solve);
        s.hpl.push(rep);
    }
    s
}
