//! `cycle_xor` / `cycle_rs2`: a `Checkpointer::make` loop and nothing
//! else. `encoding::kernels`, `crc`, the `mps` reduce and the
//! `core::protocol` flush do all the work; `linalg`, `hpl` and `ftsim`
//! do none.
//!
//! Outside the timed region every rank rewrites its whole workspace
//! with an epoch-keyed pattern, so every make has real work whose
//! result can be checked: after the loop the committed copy `B` must
//! hold the last epoch's pattern bit for bit, the group parity must
//! verify, and a scrub must find nothing to repair.

use super::{fill, holds, observe, Checks, Session, A1_LEN, RANKS};
use crate::host::{timed, Timed};
use crate::trace::{SpanId, Tracer};
use skt_cluster::{Cluster, ClusterConfig, Ranklist};
use skt_core::{Checkpointer, CkptConfig, CkptStats, Method};
use skt_encoding::CodecSpec;
use skt_mps::{run_on_cluster, Ctx, Fault, Payload};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NAME: &str = "cycle";

struct RankOut {
    setup_done: Instant,
    ops: Vec<Timed>,
    stats: Vec<CkptStats>,
    epoch: u64,
    b_holds: bool,
    parity_ok: bool,
    scrub_clean: bool,
}

fn rank_body(
    ctx: &Ctx,
    codec: CodecSpec,
    seed: u64,
    budget: Option<Duration>,
    trace: Option<(&Tracer, SpanId)>,
) -> Result<RankOut, Fault> {
    let world = ctx.world();
    let rank = world.rank();
    if let Some((t, _)) = trace {
        t.bind_rank(rank);
    }
    let cfg = CkptConfig::new(NAME, Method::SelfCkpt, A1_LEN, 8).with_codec(codec);
    let (mut ck, _) = Checkpointer::init(world.clone(), cfg);
    let ws = ck.workspace();
    fill(&ws, A1_LEN, seed, rank, 1);
    ck.make(&1u64.to_le_bytes())?;
    let setup_done = Instant::now();

    let mut ops = Vec::new();
    let mut stats = Vec::new();
    loop {
        // rank 0 owns the clock; everyone must agree to enter the collective
        let go = rank == 0 && budget.is_some_and(|b| setup_done.elapsed() < b);
        let go = world
            .bcast(0, Payload::I64(vec![i64::from(go)]))?
            .into_i64()[0]
            != 0;
        if !go {
            break;
        }
        let e = ck.epoch() + 1;
        fill(&ws, A1_LEN, seed, rank, e);
        let span = trace.map(|(t, rep)| (t, t.open_under(rep, "make", Some(e))));
        let (st, op) = timed(|| ck.make(&e.to_le_bytes()));
        if let Some((t, id)) = span {
            t.close(id);
        }
        ops.push(op);
        stats.push(st?);
    }

    let epoch = ck.epoch();
    let b = ctx
        .shm()
        .attach(&format!("{NAME}/r{}/b", ctx.world_rank()))
        .ok_or(Fault::Protocol("checkpoint copy B is gone"))?;
    let b_holds = holds(&b, A1_LEN, seed, rank, epoch);
    let parity_ok = ck.verify_integrity()?;
    let scrub_clean = match ck.scrub() {
        Ok(r) => r.repaired.is_empty() && !r.header_repaired && r.pairs_checked > 0,
        Err(_) => false,
    };
    Ok(RankOut {
        setup_done,
        ops,
        stats,
        epoch,
        b_holds,
        parity_ok,
        scrub_clean,
    })
}

pub fn session(
    codec: CodecSpec,
    seed: u64,
    budget: Option<Duration>,
    tracer: Option<&Arc<Tracer>>,
    checks: &mut Checks,
) -> Session {
    let t_setup = Instant::now();
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(RANKS, 0)));
    observe(&cluster, tracer);
    let rl = Ranklist::round_robin(RANKS, RANKS);
    let rep = tracer.map(|t| (&**t, t.open("repetition", None)));
    let outs = run_on_cluster(cluster, &rl, |ctx| rank_body(ctx, codec, seed, budget, rep));
    if let Some((t, id)) = rep {
        t.close(id);
    }
    let outs = match outs {
        Ok(o) => o,
        Err(f) => {
            checks.check(false, || {
                format!("{}: make loop faulted: {f}", codec.name())
            });
            return Session::default();
        }
    };
    let r0 = &outs[0];
    // the warm-up make and every timed make returned Ok
    for _ in 0..=r0.ops.len() {
        checks.check(true, String::new);
    }
    for (rank, o) in outs.iter().enumerate() {
        checks.check(o.b_holds, || {
            format!("rank {rank}: B does not hold epoch {}'s pattern", o.epoch)
        });
        checks.check(o.parity_ok, || {
            format!("rank {rank}: verify_integrity failed")
        });
        checks.check(o.scrub_clean, || {
            format!("rank {rank}: scrub repaired a clean group")
        });
    }
    Session {
        setup_s: r0.setup_done.duration_since(t_setup).as_secs_f64(),
        ops: r0.ops.clone(),
        ckpt: r0.stats.clone(),
        ..Session::default()
    }
}
