//! `fail_recover_rs2`: the read side of the codec and engine
//! (`reconstruct_multi`, `solve`, CRC verify, `B → work` copy) beside
//! the writes the cycle workloads time.
//!
//! One iteration: `make` (untimed) → power off `m` seeded distinct
//! victims → `Ranklist::repair` → relaunch → **timed** `recover()` →
//! every rank's workspace compared bit for bit with the committed
//! epoch's pattern. The victims die between launches, with `(B, C)`
//! committed, so recovery is the paper's CASE 1 rollback; the CASE 2
//! roll-forward is the `core.recover_case2_ms` probe.

use super::{fill, holds, observe, Checks, Session, A1_LEN, RANKS};
use crate::host::{timed, Timed};
use crate::trace::{SpanId, Tracer};
use skt_cluster::{Cluster, ClusterConfig, FailurePlan, Ranklist, SplitMix64};
use skt_core::{Checkpointer, CkptConfig, CkptStats, Method, Phase, Recovery, RestoreSource};
use skt_encoding::CodecSpec;
use skt_mps::{run_on_cluster, Ctx, Fault};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NAME: &str = "failrec";

/// Spares on the cluster: each iteration burns `m`, and dead nodes stay
/// dead, so this bounds the iterations of one session (far above what
/// fits in the longest run).
const SPARES: usize = 4096;

/// One checkpoint group under `codec`, surviving `m` losses per
/// iteration.
pub struct Group {
    cluster: Arc<Cluster>,
    rl: Ranklist,
    ranks: usize,
    codec: CodecSpec,
    a1_len: usize,
    seed: u64,
    rng: SplitMix64,
    /// Epoch the last make committed (or, mid-flush, was committing).
    epoch: u64,
    /// Group ranks lost since that make, ascending.
    lost: Vec<usize>,
}

struct RankOut {
    recover: Option<Timed>,
    recovered_ok: bool,
    why: String,
    stats: Option<CkptStats>,
}

impl Group {
    pub fn new(
        codec: CodecSpec,
        ranks: usize,
        a1_len: usize,
        seed: u64,
        tracer: Option<&Arc<Tracer>>,
    ) -> Group {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(ranks, SPARES)));
        observe(&cluster, tracer);
        Group {
            cluster,
            rl: Ranklist::round_robin(ranks, ranks),
            ranks,
            codec,
            a1_len,
            seed,
            rng: SplitMix64::new(seed ^ 0xFA11),
            epoch: 0,
            lost: Vec::new(),
        }
    }

    fn rank_body(
        &self,
        ctx: &Ctx,
        expect: Option<RestoreSource>,
        make: bool,
        trace: Option<(&Tracer, SpanId)>,
    ) -> Result<RankOut, Fault> {
        let world = ctx.world();
        let rank = world.rank();
        if let Some((t, _)) = trace {
            t.bind_rank(rank);
        }
        let cfg = CkptConfig::new(NAME, Method::SelfCkpt, self.a1_len, 8).with_codec(self.codec);
        let (mut ck, _) = Checkpointer::init(world, cfg);
        let ws = ck.workspace();
        let mut out = RankOut {
            recover: None,
            recovered_ok: true,
            why: String::new(),
            stats: None,
        };
        if let Some(source) = expect {
            let e = self.epoch;
            let span = trace.map(|(t, rep)| (t, t.open_under(rep, "recover", Some(e))));
            let (rec, op) = timed(|| ck.recover());
            out.recover = Some(op);
            if let Some((t, id)) = span {
                t.close(id);
            }
            let verdict = match rec {
                Ok(Recovery::Restored {
                    epoch,
                    a2,
                    source: s,
                }) => {
                    let lost = ck.last_report().map(|r| r.lost);
                    if epoch != e || a2 != e.to_le_bytes() {
                        Err(format!("restored epoch {epoch}, expected {e}"))
                    } else if s != source {
                        Err(format!("restored from {s:?}, expected {source:?}"))
                    } else if lost.as_deref() != Some(&self.lost[..]) {
                        Err(format!("rebuilt {lost:?}, expected {:?}", self.lost))
                    } else if !holds(&ws, self.a1_len, self.seed, rank, e) {
                        Err(format!("workspace is not epoch {e}'s pattern"))
                    } else {
                        Ok(())
                    }
                }
                Ok(Recovery::NoCheckpoint) => Err("no checkpoint found".into()),
                Err(err) => Err(err.to_string()),
            };
            if let Err(why) = verdict {
                out.recovered_ok = false;
                out.why = format!("rank {rank}: {why}");
            }
        }
        if make {
            let e = ck.epoch() + 1;
            fill(&ws, self.a1_len, self.seed, rank, e);
            let span = trace.map(|(t, rep)| (t, t.open_under(rep, "make", Some(e))));
            let st = ck.make(&e.to_le_bytes());
            if let Some((t, id)) = span {
                t.close(id);
            }
            out.stats = Some(st?);
        }
        Ok(out)
    }

    /// One launch: recover first when something was lost, then (unless
    /// `make` is off) rewrite the workspace and commit the next epoch.
    /// Returns rank 0's timed recover and make stats.
    pub fn launch(
        &mut self,
        make: bool,
        source: RestoreSource,
        tracer: Option<&Arc<Tracer>>,
        checks: &mut Checks,
    ) -> (Option<Timed>, Option<CkptStats>) {
        let expect = (!self.lost.is_empty()).then_some(source);
        let rep = tracer.map(|t| (&**t, t.open("repetition", None)));
        let outs = run_on_cluster(Arc::clone(&self.cluster), &self.rl, |ctx| {
            self.rank_body(ctx, expect, make, rep)
        });
        if let Some((t, id)) = rep {
            t.close(id);
        }
        match outs {
            Ok(outs) => {
                if expect.is_some() {
                    self.lost.clear();
                    for o in &outs {
                        checks.check(o.recovered_ok, || o.why.clone());
                    }
                }
                if make {
                    self.epoch += 1;
                    checks.check(true, String::new);
                }
                (outs[0].recover, outs[0].stats)
            }
            Err(f) => {
                checks.check(false, || {
                    format!("launch at epoch {} faulted: {f}", self.epoch)
                });
                (None, None)
            }
        }
    }

    /// `m` seeded distinct ranks.
    fn pick_victims(&mut self) -> Vec<usize> {
        let mut victims: Vec<usize> = Vec::new();
        while victims.len() < self.codec.parity_count() {
            let v = self.rng.below(self.ranks as u64) as usize;
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        victims
    }

    /// Power off `m` seeded distinct victims and repair the ranklist.
    pub fn kill_victims(&mut self) -> bool {
        let victims = self.pick_victims();
        self.kill(&victims)
    }

    fn kill(&mut self, victims: &[usize]) -> bool {
        for &v in victims {
            self.cluster.kill_node(self.rl.node_of(v));
            if !self.lost.contains(&v) {
                self.lost.push(v);
            }
        }
        self.lost.sort_unstable();
        self.cluster.reset_abort();
        self.rl.repair(&self.cluster).is_ok()
    }

    /// A make whose first victim dies at `Phase::FlushB` (the rest are
    /// powered off right after the abort: two plans armed on one probe
    /// race the scheduler), leaving `(work, D)` as the consistent pair.
    pub fn make_dying_mid_flush(&mut self, checks: &mut Checks) -> bool {
        let victims = self.pick_victims();
        self.cluster.arm_failure(FailurePlan::new(
            Phase::FlushB,
            1,
            self.rl.node_of(victims[0]),
        ));
        let outs = run_on_cluster(Arc::clone(&self.cluster), &self.rl, |ctx| {
            self.rank_body(ctx, None, true, None)
        });
        self.cluster.clear_failures();
        checks.check(outs.is_err(), || {
            "make survived a node loss armed at FlushB".to_string()
        });
        // D@e committed job-wide before anyone reached the flush
        self.epoch += 1;
        self.kill(&victims)
    }

    pub fn spares_left(&self) -> usize {
        self.cluster.spares_left()
    }
}

pub fn session(
    seed: u64,
    budget: Option<Duration>,
    tracer: Option<&Arc<Tracer>>,
    checks: &mut Checks,
) -> Session {
    let codec = CodecSpec::Rs { m: 2 };
    let committed = RestoreSource::CheckpointAndChecksum;
    let t_setup = Instant::now();
    let mut g = Group::new(codec, RANKS, A1_LEN, seed, tracer);
    let mut s = Session::default();
    // warm-up: one full make → kill → recover iteration, verified
    g.launch(true, committed, tracer, checks);
    if !g.kill_victims() {
        checks.check(false, || "spare pool ran dry in set-up".into());
        return s;
    }
    s.ckpt.extend(g.launch(true, committed, tracer, checks).1);
    s.setup_s = t_setup.elapsed().as_secs_f64();
    let t_loop = Instant::now();
    while budget.is_some_and(|b| t_loop.elapsed() < b) && g.spares_left() >= codec.parity_count() {
        if !g.kill_victims() {
            checks.check(false, || "spare pool ran dry".into());
            break;
        }
        let (recover, stats) = g.launch(true, committed, tracer, checks);
        s.ops.extend(recover);
        s.ckpt.extend(stats);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both cases at a small size: CASE 1 rolls back from `(B, C)`,
    /// CASE 2 rolls forward from `(work, D)`, each bit-exact with the
    /// expected lost set — and a wrong expectation is counted as failed.
    #[test]
    fn both_recovery_cases_verify_and_a_wrong_expectation_fails() {
        let mut checks = Checks::default();
        let mut g = Group::new(CodecSpec::Rs { m: 2 }, RANKS, 4096, 3, None);
        g.launch(
            true,
            RestoreSource::CheckpointAndChecksum,
            None,
            &mut checks,
        );
        assert!(g.kill_victims());
        assert_eq!(g.lost.len(), 2);
        let (op, _) = g.launch(
            true,
            RestoreSource::CheckpointAndChecksum,
            None,
            &mut checks,
        );
        assert!(op.is_some_and(|t| t.ms > 0.0));
        assert!(g.make_dying_mid_flush(&mut checks));
        let (op, _) = g.launch(
            false,
            RestoreSource::WorkspaceAndChecksum,
            None,
            &mut checks,
        );
        assert!(op.is_some());
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);

        assert!(g.kill_victims());
        g.launch(
            false,
            RestoreSource::WorkspaceAndChecksum,
            None,
            &mut checks,
        );
        assert_eq!(checks.failed, RANKS as u64, "CASE 1 is not a roll-forward");
        assert!(checks.notes[0].contains("expected WorkspaceAndChecksum"));
    }
}
