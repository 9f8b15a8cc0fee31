use super::table::MethodTable;
use super::*;
use crate::memory::MemoryBreakdown;
use skt_cluster::{
    Cluster, ClusterConfig, Event, FailurePlan, FaultAction, FaultPlan, Ranklist, Recorder, Region,
};
use skt_encoding::{Code, GroupLayout};
use skt_mps::run_on_cluster;
use std::sync::Arc;

const N: usize = 4;
const A1: usize = 64;

/// Flip one bit of `node`'s `region` right now; whether it landed.
fn flip(cluster: &Cluster, node: usize, region: Region, offset: usize, bit: u8) -> bool {
    let action = FaultAction::Corrupt {
        region,
        offset,
        bit,
    };
    cluster.apply_fault(node, &action)
}

fn cfg(method: Method) -> CkptConfig {
    CkptConfig::new("test", method, A1, 64)
}

fn pattern(rank: usize, epoch: u64) -> Vec<f64> {
    (0..A1)
        .map(|i| (rank * 10_000 + i) as f64 + epoch as f64 * 0.5)
        .collect()
}

/// One self-method make per codec: every rank enters every phase once,
/// and the only bytes the make moves are the `work → B` flush — one
/// padded checkpoint per rank, no parity. The encode lands in the parity
/// region the next commit word points at, so no `D → C` copy (the
/// paper's `ckpt-flush-c` phase) follows it.
#[test]
fn make_emits_observable_phase_events() {
    for codec in [CodecSpec::Single(Code::Xor), CodecSpec::Rs { m: 2 }] {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
        let rl = Ranklist::round_robin(N, N);
        let rec = Arc::new(Recorder::new());
        cluster.events().subscribe(rec.clone());
        let cfg = cfg(Method::SelfCkpt).with_codec(codec);
        run_on_cluster(cluster.clone(), &rl, |ctx| {
            let (mut ck, _) = Checkpointer::init(ctx.world(), cfg.clone());
            ck.make(b"x")?;
            Ok(())
        })
        .unwrap();
        let enters = |label: &str| {
            rec.count(|e| matches!(e, Event::PhaseEnter { label: l, .. } if *l == label))
        };
        for phase in [Phase::Serialize, Phase::Encode, Phase::FlushB] {
            assert_eq!(enters(phase.label()), N, "{codec:?}: {phase} enters");
        }
        assert_eq!(enters("ckpt-flush-c"), 0, "{codec:?}: no parity flush");
        // the encode spans the barrier, so its total is measurably nonzero
        assert!(rec.phase_total(Phase::Encode.label()) > Duration::ZERO);
        let moved: u64 = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::BytesMoved { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum();
        let m = codec.parity_count();
        let padded = GroupLayout::new_with_parity(N, m, A1 + 1 + 64usize.div_ceil(8)).padded_len();
        assert_eq!(moved, (N * padded * 8) as u64, "{codec:?}: bytes moved");
    }
}

#[test]
fn fresh_start_reports_no_checkpoint() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
    let rl = Ranklist::round_robin(N, N);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, attached) = Checkpointer::init(world, cfg(Method::SelfCkpt));
        assert!(!attached);
        let rec = ck.recover().map_err(|_| Fault::JobAborted)?;
        assert!(ck.last_report().is_none(), "no restore, no report");
        Ok(rec)
    })
    .unwrap();
    assert!(outs.iter().all(|r| *r == Recovery::NoCheckpoint));
}

#[test]
fn checkpoint_integrity_verifies_after_make() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
    let rl = Ranklist::round_robin(N, N);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, cfg(Method::SelfCkpt));
        {
            let ws = ck.workspace();
            ws.write().as_f64_mut()[..A1].copy_from_slice(&pattern(ctx.world_rank(), 1));
        }
        ck.make(b"state")?;
        let ok = ck.verify_integrity()?;
        // corrupt one byte of B on rank 2 and re-verify
        if ctx.world_rank() == 2 {
            let name = format!("test/r{}/b", ctx.world_rank());
            let seg = ctx.shm().attach(&name).unwrap();
            seg.write().as_f64_mut()[5] += 1.0;
        }
        ctx.world().barrier()?;
        let world2 = ctx.world();
        let (ck2, _) = Checkpointer::init(world2, cfg(Method::SelfCkpt));
        let ok2 = ck2.verify_integrity()?;
        Ok((ok, ok2))
    })
    .unwrap();
    for (ok, ok2) in outs {
        assert!(ok, "fresh checkpoint must verify");
        assert!(!ok2, "corruption must be detected group-wide");
    }
}

#[test]
fn scrub_repairs_a_single_corrupt_stripe() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
    let rl = Ranklist::round_robin(N, N);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, cfg(Method::SelfCkpt));
        {
            let ws = ck.workspace();
            ws.write().as_f64_mut()[..A1].copy_from_slice(&pattern(ctx.world_rank(), 4));
        }
        ck.make(b"four")?;
        // Silent single-bit flip in rank 2's committed checkpoint copy.
        if ctx.world_rank() == 0 {
            assert!(flip(ctx.cluster(), 2, Region::CopyB, 13, 6));
        }
        ctx.world().barrier()?;
        let report = ck.scrub().map_err(|e| match e {
            RecoverError::Fault(f) => f,
            RecoverError::Unrecoverable(m) => panic!("unrecoverable: {m}"),
        })?;
        let ok = ck.verify_integrity()?;
        let name = format!("test/r{}/b", ctx.world_rank());
        let b = ctx.shm().attach(&name).expect("checkpoint copy exists");
        let data = b.read().as_f64()[..A1].to_vec();
        Ok((report, ok, data))
    })
    .unwrap();
    for (rank, (report, ok, data)) in outs.iter().enumerate() {
        assert_eq!(report.pairs_checked, 1, "rank {rank}");
        assert_eq!(report.repaired, vec![2], "rank {rank}");
        assert!(!report.header_repaired, "rank {rank}");
        assert!(ok, "rank {rank}: pair must verify after the repair");
        // the erasure rebuild restores the damaged copy bit-exactly
        assert_eq!(data, &pattern(rank, 4), "rank {rank} repaired copy");
    }
}

#[test]
fn scrub_reports_two_damaged_members_as_unrecoverable() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
    let rl = Ranklist::round_robin(N, N);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, cfg(Method::SelfCkpt));
        {
            let ws = ck.workspace();
            ws.write().as_f64_mut()[..A1].copy_from_slice(&pattern(ctx.world_rank(), 1));
        }
        ck.make(b"one")?;
        // Two members of the same (B, X(1)) pair damaged: beyond single
        // parity. Epoch 1's parity region X(1) is D.
        if ctx.world_rank() == 0 {
            let cl = ctx.cluster();
            assert!(flip(cl, 1, Region::CopyB, 0, 0));
            assert!(flip(cl, 3, Region::ChecksumD, 21, 4));
        }
        ctx.world().barrier()?;
        match ck.scrub() {
            Err(RecoverError::Unrecoverable(msg)) => Ok(msg),
            other => panic!("expected unrecoverable, got {other:?}"),
        }
    })
    .unwrap();
    for msg in outs {
        assert!(msg.contains("single parity can rebuild only one"), "{msg}");
        assert!(msg.contains("[1, 3]"), "{msg}");
    }
}

#[test]
fn corrupt_own_workspace_at_the_encode_probe_does_not_hang_the_make() {
    // The encode probe fires on the firing rank's own thread, and a
    // corrupt plan aimed at that rank's own workspace write-locks the
    // very segment the ring is folding: a read guard held across the
    // probe is a self-deadlock. Run under a watchdog so a reintroduced
    // guard fails the test instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    let job = std::thread::spawn(move || {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
        let rl = Ranklist::round_robin(N, N);
        let rec = Arc::new(Recorder::new());
        cluster.events().subscribe(rec.clone());
        cluster.arm_failure(FaultPlan::corrupt(Phase::Encode, 1, 1, Region::Work, 40, 3));
        let verdicts = run_on_cluster(cluster, &rl, |ctx| {
            let cfg = CkptConfig::new("test", Method::SelfCkpt, 256, 64);
            let (mut ck, _) = Checkpointer::init(ctx.world(), cfg);
            ck.make(b"x")?;
            ck.verify_integrity()
        });
        let injected = rec.count(|e| matches!(e, Event::CorruptionInjected { .. }));
        let _ = tx.send((verdicts, injected));
    });
    let (verdicts, injected) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("make hung: a segment guard is held at the encode probe");
    job.join().expect("the job thread reported and ended");
    assert_eq!(injected, 1, "the flip landed, once");
    // the flip sits in the live workspace before its witness is taken:
    // whether the committed pair verifies is the protocol's answer to
    // give, but every rank must get one, and the same one
    let verdicts = verdicts.expect("the make and the verify return");
    assert!(verdicts.iter().all(|v| *v == verdicts[0]), "{verdicts:?}");
}

#[test]
fn scrub_rebuilds_a_crc_corrupt_header_from_group_consensus() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
    let rl = Ranklist::round_robin(N, N);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, cfg(Method::SelfCkpt));
        for e in 1..=2u64 {
            {
                let ws = ck.workspace();
                ws.write().as_f64_mut()[..A1].copy_from_slice(&pattern(ctx.world_rank(), e));
            }
            ck.make(&e.to_le_bytes())?;
        }
        // All commits must be on disk before the flip: a rank's trailing
        // header write inside `make` would otherwise re-seal the
        // corrupted payload as valid.
        ctx.world().barrier()?;
        // Any flipped bit breaks the header's own CRC seal.
        if ctx.world_rank() == 0 {
            assert!(flip(ctx.cluster(), 3, Region::Header, 2, 5));
        }
        ctx.world().barrier()?;
        let first = ck.scrub().map_err(|_| Fault::JobAborted)?;
        let second = ck.scrub().map_err(|_| Fault::JobAborted)?;
        Ok((first, second))
    })
    .unwrap();
    for (rank, (first, second)) in outs.iter().enumerate() {
        assert_eq!(
            first.header_repaired,
            rank == 3,
            "rank {rank}: only the damaged header is rebuilt"
        );
        assert_eq!(first.repaired, Vec::<usize>::new(), "rank {rank}");
        assert_eq!(first.pairs_checked, 1, "rank {rank}");
        // the consensus repair persisted: a second pass finds nothing
        assert!(!second.header_repaired, "rank {rank}");
        assert_eq!(second.repaired, Vec::<usize>::new(), "rank {rank}");
    }
}

#[test]
fn double_scrub_checks_only_committed_pairs_and_repairs_the_second() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
    let rl = Ranklist::round_robin(N, N);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, cfg(Method::Double));
        let fill = |ck: &Checkpointer<'_>, e: u64| {
            let ws = ck.workspace();
            ws.write().as_f64_mut()[..A1].copy_from_slice(&pattern(ctx.world_rank(), e));
        };
        // Epoch 1 commits pair 0 only: (b1, c1) is still zero-filled
        // with zero CRC slots — not a checkpoint, so not scrubbed.
        fill(&ck, 1);
        ck.make(b"one")?;
        let one = ck.scrub().map_err(|_| Fault::JobAborted)?;
        // Epoch 2 commits pair 1; a flip in rank 1's `b1` is repaired
        // from the pair's own parity `c1`.
        fill(&ck, 2);
        ck.make(b"two")?;
        ctx.world().barrier()?;
        if ctx.world_rank() == 0 {
            assert!(flip(ctx.cluster(), 1, Region::CopyB1, 9, 3));
        }
        ctx.world().barrier()?;
        let two = ck.scrub().map_err(|_| Fault::JobAborted)?;
        let ok = ck.verify_integrity()?;
        let b1 = ctx
            .shm()
            .attach(&format!("test/r{}/b1", ctx.world_rank()))
            .expect("second checkpoint copy exists");
        let data = b1.read().as_f64()[..A1].to_vec();
        Ok((one, two, ok, data))
    })
    .unwrap();
    for (rank, (one, two, ok, data)) in outs.iter().enumerate() {
        assert_eq!(one.pairs_checked, 1, "rank {rank}");
        assert_eq!(one.repaired, Vec::<usize>::new(), "rank {rank}");
        // only the newest pair, epoch 2's (b1, c1), is checked
        assert_eq!(two.pairs_checked, 1, "rank {rank}");
        assert_eq!(two.repaired, vec![1], "rank {rank}");
        assert!(
            ok,
            "rank {rank}: epoch 2's pair must verify after the repair"
        );
        assert_eq!(data, &pattern(rank, 2), "rank {rank} repaired copy");
    }
}

/// A double-method make killed inside its copy leaves the pair it was
/// overwriting torn, and the recovery goes back to the other pair's
/// epoch. A scrub then checks only that pair — the one
/// `verify_integrity` checks — and must not "repair" node 1's member of
/// the torn pair from the survivors' mixed bytes: nothing is rebuilt and
/// every rank's pair-0 segments stay byte-identical.
#[test]
fn scrub_after_a_torn_double_make_leaves_the_overwritten_pair_alone() {
    for codec in [CodecSpec::Single(Code::Xor), CodecSpec::Rs { m: 2 }] {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 1)));
        let mut rl = Ranklist::round_robin(N, N);
        // epoch 3 overwrites pair 0 (b, c), which holds epoch 1
        cluster.arm_failure(FailurePlan::new(Phase::CopyB, 3, 1));
        let cfg = cfg(Method::Double).with_codec(codec);
        let made = run_on_cluster(cluster.clone(), &rl, |ctx| {
            let (mut ck, _) = Checkpointer::init(ctx.world(), cfg.clone());
            for e in 1..=3u64 {
                let ws = ck.workspace();
                ws.write().as_f64_mut()[..A1].copy_from_slice(&pattern(ctx.world_rank(), e));
                ck.make(&e.to_le_bytes())?;
            }
            Ok(())
        });
        assert!(made.is_err(), "{codec:?}: node 1 dies in epoch 3's make");
        cluster.reset_abort();
        rl.repair(&cluster).unwrap();
        let outs = run_on_cluster(cluster, &rl, |ctx| {
            let (mut ck, _) = Checkpointer::init(ctx.world(), cfg.clone());
            let rec = ck.recover().map_err(|_| Fault::JobAborted)?;
            let pair0 = || {
                ["b", "c"].map(|r| {
                    let seg = ctx.shm().attach(&format!("test/r{}/{r}", ctx.world_rank()));
                    seg.expect("pair-0 segment exists").read().as_f64().to_vec()
                })
            };
            let before = pair0();
            let report = ck.scrub().map_err(|_| Fault::JobAborted)?;
            let untouched = pair0() == before;
            let ok = ck.verify_integrity()?;
            Ok((rec, report, untouched, ok))
        })
        .unwrap();
        for (rank, (rec, report, untouched, ok)) in outs.iter().enumerate() {
            let tag = format!("{codec:?}: rank {rank}");
            assert!(
                matches!(rec, Recovery::Restored { epoch: 2, .. }),
                "{tag}: {rec:?}"
            );
            assert_eq!(report.pairs_checked, 1, "{tag}");
            assert_eq!(report.repaired, Vec::<usize>::new(), "{tag}");
            assert!(untouched, "{tag}: the torn pair 0 was rewritten");
            assert!(ok, "{tag}: epoch 2's pair must verify");
        }
    }
}

#[test]
fn restart_recovery_repairs_a_corrupted_survivor_bit_exactly() {
    // No node dies: the job exits normally, a bit silently flips in one
    // rank's checkpoint copy while the job is down, and the restart's
    // recovery folds the CRC-damaged survivor into the erasure.
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
    let rl = Ranklist::round_robin(N, N);
    run_on_cluster(cluster.clone(), &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, cfg(Method::SelfCkpt));
        {
            let ws = ck.workspace();
            ws.write().as_f64_mut()[..A1].copy_from_slice(&pattern(ctx.world_rank(), 5));
        }
        ck.make(b"five")?;
        Ok(())
    })
    .unwrap();
    assert!(flip(&cluster, 1, Region::CopyB, 77, 3));
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, cfg(Method::SelfCkpt));
        let rec = ck.recover().map_err(|e| match e {
            RecoverError::Fault(f) => f,
            RecoverError::Unrecoverable(msg) => panic!("unrecoverable: {msg}"),
        })?;
        let ws = ck.workspace();
        let data = ws.read().as_f64()[..A1].to_vec();
        Ok((rec, data))
    })
    .unwrap();
    for (rank, (rec, data)) in outs.iter().enumerate() {
        match rec {
            Recovery::Restored { epoch: 1, a2, .. } => {
                assert_eq!(a2.as_slice(), b"five", "rank {rank}");
            }
            other => panic!("rank {rank}: expected restore, got {other:?}"),
        }
        assert_eq!(data, &pattern(rank, 5), "rank {rank} data");
    }
}

/// What one rank saw of a restart after a flip: the integrity check, the
/// scrub, then the recovery after node 1 was lost and the workspace it
/// left.
type AfterFlip = (bool, ScrubReport, Recovery, Vec<f64>);

/// `epochs` self-method makes, one bit of rank 2's `region` flipped while
/// the job is down, a restart that verifies and scrubs, then node 1 lost
/// and a recovery.
fn flip_after_makes(epochs: u64, region: Region) -> Vec<AfterFlip> {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 1)));
    let mut rl = Ranklist::round_robin(N, N);
    let body = |ctx: &skt_mps::Ctx| {
        let (mut ck, _) = Checkpointer::init(ctx.world(), cfg(Method::SelfCkpt));
        for e in 1..=epochs {
            let ws = ck.workspace();
            ws.write().as_f64_mut()[..A1].copy_from_slice(&pattern(ctx.world_rank(), e));
            ck.make(&e.to_le_bytes())?;
        }
        Ok(())
    };
    run_on_cluster(cluster.clone(), &rl, body).unwrap();
    assert!(flip(&cluster, 2, region, 25, 5));
    let checked = run_on_cluster(cluster.clone(), &rl, |ctx| {
        let (mut ck, _) = Checkpointer::init(ctx.world(), cfg(Method::SelfCkpt));
        let ok = ck.verify_integrity()?;
        let report = ck.scrub().map_err(|_| Fault::JobAborted)?;
        Ok((ok, report))
    })
    .unwrap();
    cluster.kill_node(1);
    cluster.reset_abort();
    rl.repair(&cluster).unwrap();
    let recovered = run_on_cluster(cluster, &rl, |ctx| {
        let (mut ck, _) = Checkpointer::init(ctx.world(), cfg(Method::SelfCkpt));
        let rec = ck.recover().map_err(|_| Fault::JobAborted)?;
        let data = ck.workspace().read().as_f64()[..A1].to_vec();
        Ok((rec, data))
    })
    .unwrap();
    checked
        .into_iter()
        .zip(recovered)
        .map(|((ok, report), (rec, data))| (ok, report, rec, data))
        .collect()
}

/// After make `e` the self method's two checksum regions hold `P(e)` in
/// `X(e)` (`D` at odd epochs, `C` at even ones) and the stale `P(e-1)` in
/// `X(e+1)`, each under a valid witness. A flip in the stale region is
/// never trusted, so nothing finds or repairs it and a one-loss recovery
/// is still bit-exact; the same flip in `X(e)` is found and rebuilt.
#[test]
fn stale_parity_is_never_trusted() {
    for e in [2u64, 3] {
        let (live, stale) = if e % 2 == 1 {
            (Region::ChecksumD, Region::ParityC)
        } else {
            (Region::ParityC, Region::ChecksumD)
        };
        for (region, repaired) in [(stale, vec![]), (live, vec![2])] {
            let tag = format!("epoch {e}, flip in {region}");
            for (rank, (ok, report, rec, data)) in flip_after_makes(e, region).iter().enumerate() {
                assert_eq!(*ok, region == stale, "{tag}: rank {rank} integrity");
                assert_eq!(report.repaired, repaired, "{tag}: rank {rank} scrub");
                let restored = Recovery::Restored {
                    epoch: e,
                    a2: e.to_le_bytes().to_vec(),
                    source: RestoreSource::CheckpointAndChecksum,
                };
                assert_eq!(*rec, restored, "{tag}: rank {rank}");
                assert_eq!(data, &pattern(rank, e), "{tag}: rank {rank} data");
            }
        }
    }
}

/// The encode witnesses `work` and the flush copies it into `B`: a bit
/// flipped in rank 2's workspace between the two (at the `CommitD`
/// probe) must reach `B` under the encode's witness, not a fresh one.
/// The scrub then finds rank 2's copy damaged and rebuilds the
/// pre-flip bytes from parity, under single and double parity alike.
#[test]
fn a_workspace_flip_after_the_encode_witness_is_repaired_not_blessed() {
    for codec in [CodecSpec::Single(Code::Xor), CodecSpec::Rs { m: 2 }] {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
        let rl = Ranklist::round_robin(N, N);
        cluster.arm_failure(FaultPlan::corrupt(
            Phase::CommitD,
            1,
            2,
            Region::Work,
            100,
            5,
        ));
        let cfg = cfg(Method::SelfCkpt).with_codec(codec);
        let outs = run_on_cluster(cluster, &rl, |ctx| {
            let (mut ck, _) = Checkpointer::init(ctx.world(), cfg.clone());
            let ws = ck.workspace();
            ws.write().as_f64_mut()[..A1].copy_from_slice(&pattern(ctx.world_rank(), 1));
            ck.make(b"one")?;
            let report = ck.scrub().map_err(|e| match e {
                RecoverError::Fault(f) => f,
                RecoverError::Unrecoverable(m) => panic!("{codec:?}: unrecoverable: {m}"),
            })?;
            let ok = ck.verify_integrity()?;
            let b = ctx.shm().attach(&format!("test/r{}/b", ctx.world_rank()));
            let data = b.expect("checkpoint copy exists").read().as_f64()[..A1].to_vec();
            Ok((report.repaired, ok, data))
        })
        .unwrap();
        for (rank, (repaired, ok, data)) in outs.iter().enumerate() {
            assert_eq!(repaired, &vec![2], "{codec:?}: rank {rank} scrub");
            assert!(ok, "{codec:?}: rank {rank} integrity");
            assert_eq!(data, &pattern(rank, 1), "{codec:?}: rank {rank} B");
        }
    }
}

/// Whether every region of every committed pair — and, with `live`, the
/// self method's `(work, X(d))` — matches its stored witness. Pair words
/// come from this rank's header.
fn witnesses_exact(ck: &Checkpointer, live: bool) -> Result<bool, Fault> {
    let header::HeaderState::Valid(h) = header::Header::classify(&ck.header) else {
        return Ok(false);
    };
    let words = h.words();
    let pairs = ck
        .table
        .pairs
        .iter()
        .chain(ck.table.live.iter().filter(|_| live));
    for pair in pairs {
        let e = words[pair.word as usize];
        if e > 0 && !(ck.region_crc_ok(pair.data)? && ck.region_crc_ok(pair.parity(e))?) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Copies carry their source's witness instead of computing one, so a
/// carried witness must never go stale when nothing is corrupted: after
/// every make, a rollback to the committed checkpoint (CASE 1), the self
/// method's roll-forward (CASE 2) and a scrub, every committed pair of
/// every method and codec matches its witness — and right after a make,
/// the self method's live pair too.
#[test]
fn carried_witnesses_stay_exact_through_make_restore_and_scrub() {
    for method in [Method::SelfCkpt, Method::Double, Method::Single] {
        for codec in [CodecSpec::Single(Code::Xor), CodecSpec::Rs { m: 2 }] {
            let tag = format!("{method:?} {codec:?}");
            let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 2)));
            let mut rl = Ranklist::round_robin(N, N);
            let cfg = cfg(method).with_codec(codec);
            let live = method == Method::SelfCkpt;
            let relaunch = |rl: &mut Ranklist| {
                cluster.reset_abort();
                rl.repair(&cluster).unwrap();
            };
            let make = |ck: &mut Checkpointer, rank: usize, e: u64| -> Result<bool, Fault> {
                let ws = ck.workspace();
                ws.write().as_f64_mut()[..A1].copy_from_slice(&pattern(rank, e));
                ck.make(&e.to_le_bytes())?;
                witnesses_exact(ck, live)
            };
            let recover = |ck: &mut Checkpointer| -> Result<Recovery, Fault> {
                ck.recover().map_err(|e| match e {
                    RecoverError::Fault(f) => f,
                    RecoverError::Unrecoverable(m) => panic!("{tag}: unrecoverable: {m}"),
                })
            };

            // two makes, then node 1 lost while the application computes
            cluster.arm_failure(FailurePlan::new("computing", 1, 1));
            let lost: Result<Vec<()>, _> = run_on_cluster(cluster.clone(), &rl, |ctx| {
                let (mut ck, _) = Checkpointer::init(ctx.world(), cfg.clone());
                for e in 1..=2 {
                    assert!(make(&mut ck, ctx.world_rank(), e)?, "{tag}: make {e}");
                }
                loop {
                    ctx.failpoint("computing")?;
                }
            });
            assert!(lost.is_err(), "{tag}: the loss fired");
            relaunch(&mut rl);

            // CASE 1: roll back to epoch 2's checkpoint; then (self
            // method) node 2 lost in epoch 3's flush, after D@3
            if live {
                cluster.arm_failure(FailurePlan::new(Phase::FlushB, 1, 2));
            }
            let case1 = run_on_cluster(cluster.clone(), &rl, |ctx| {
                let (mut ck, _) = Checkpointer::init(ctx.world(), cfg.clone());
                let rec = recover(&mut ck)?;
                assert!(
                    matches!(rec, Recovery::Restored { epoch: 2, .. }),
                    "{tag}: {rec:?}"
                );
                assert!(witnesses_exact(&ck, live)?, "{tag}: after the rollback");
                if live {
                    make(&mut ck, ctx.world_rank(), 3)?;
                }
                Ok(())
            });
            assert_eq!(case1.is_err(), live, "{tag}: the flush loss fired");
            if live {
                relaunch(&mut rl);
            }
            let epoch = if live { 3 } else { 2 };

            // CASE 2 (self method): roll forward to epoch 3; then a make
            // and a scrub
            let outs = run_on_cluster(cluster.clone(), &rl, |ctx| {
                let (mut ck, _) = Checkpointer::init(ctx.world(), cfg.clone());
                let rec = recover(&mut ck)?;
                let restored = witnesses_exact(&ck, live)?;
                let made = make(&mut ck, ctx.world_rank(), epoch + 1)?;
                let report = ck.scrub().map_err(|_| Fault::JobAborted)?;
                Ok((rec, restored, made, report, witnesses_exact(&ck, live)?))
            })
            .unwrap_or_else(|f| panic!("{tag}: {f}"));
            for (rank, (rec, restored, made, report, scrubbed)) in outs.iter().enumerate() {
                let t = format!("{tag}: rank {rank}");
                match rec {
                    Recovery::Restored {
                        epoch: e, source, ..
                    } => {
                        assert_eq!(*e, epoch, "{t}");
                        let case2 = RestoreSource::WorkspaceAndChecksum;
                        assert_eq!(*source == case2, live, "{t}: {source:?}");
                    }
                    other => panic!("{t}: {other:?}"),
                }
                assert!(restored, "{t}: after the restore");
                assert!(made, "{t}: after the make");
                assert!(report.repaired.is_empty(), "{t}: {report:?}");
                assert!(scrubbed, "{t}: after the scrub");
            }
        }
    }
}

#[test]
fn two_corrupted_sources_fail_recovery_with_the_group_named() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
    let rl = Ranklist::round_robin(N, N);
    run_on_cluster(cluster.clone(), &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, cfg(Method::SelfCkpt));
        ck.make(b"x")?;
        Ok(())
    })
    .unwrap();
    assert!(flip(&cluster, 1, Region::CopyB, 8, 0));
    assert!(flip(&cluster, 2, Region::CopyB, 8, 0));
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, cfg(Method::SelfCkpt));
        match ck.recover() {
            Err(RecoverError::Unrecoverable(msg)) => Ok(msg),
            other => panic!("expected unrecoverable, got {other:?}"),
        }
    })
    .unwrap();
    for msg in outs {
        assert!(msg.contains("single parity can rebuild only one"), "{msg}");
        assert!(msg.contains("[1, 2]"), "{msg}");
    }
}

#[test]
fn shm_usage_matches_table1() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
    let rl = Ranklist::round_robin(N, N);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (ck, _) = Checkpointer::init(world, cfg(Method::SelfCkpt));
        Ok((
            ck.shm_bytes(),
            ck.layout().padded_len(),
            ck.layout().stripe_len(),
        ))
    })
    .unwrap();
    for (bytes, padded, stripe) in outs {
        // work + B + C + D + CRC-sealed header + stripe-CRC table
        let expect = (2 * padded + 2 * stripe) * 8 + HEADER_BYTES + crc_table_bytes(N);
        assert_eq!(bytes, expect);
        // Table 1 total 2MN/(N-1): with M = padded elements
        let table1 = 2 * padded * N / (N - 1);
        assert_eq!(2 * padded + 2 * stripe, table1);
    }
}

/// The table is the on-disk contract. For `method`, under both parity
/// counts: `init` creates exactly the table's regions plus `header` and
/// `crc`, under the segment names `names` (what every earlier version
/// wrote); every pair's regions are allocated and own the CRC-table byte
/// range their fixed slot implies; and the footprint is Table 1's
/// (`memory.rs`, which does not read the table) plus header and CRC table.
fn init_creates_exactly_the_table_row(method: Method, names: &[&str]) {
    for codec in [CodecSpec::default(), CodecSpec::Dual] {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
        let rl = Ranklist::round_robin(N, N);
        let cfg = cfg(method).with_codec(codec);
        run_on_cluster(cluster, &rl, |ctx| {
            let (ck, attached) = Checkpointer::init(ctx.world(), cfg.clone());
            assert!(!attached);
            let table = MethodTable::of(method);
            let scoped = |part: &str| format!("test/r{}/{part}", ctx.world_rank());
            let mut created = ctx.shm().names();
            created.sort();
            let mut from_table: Vec<String> =
                (table.regions().into_iter().map(|(r, _)| r.suffix()))
                    .chain(["header", "crc"])
                    .map(scoped)
                    .collect();
            from_table.sort();
            assert_eq!(created, from_table);
            let mut literal: Vec<String> = names.iter().map(|n| scoped(n)).collect();
            literal.sort();
            assert_eq!(created, literal);

            let per = (N - 1) * 4;
            let slots = [
                Region::Work,
                Region::CopyB,
                Region::ParityC,
                Region::ChecksumD,
                Region::CopyB1,
                Region::ParityC1,
            ];
            for (i, r) in slots.into_iter().enumerate() {
                assert_eq!(ck.crc_slot_range(r), i * per..(i + 1) * per, "{r}");
            }
            assert_eq!(crc_table_bytes(N), slots.len() * per);
            for pair in table.pairs.iter().chain(&table.live) {
                for r in [pair.data, pair.parity(0), pair.parity(1)] {
                    assert!(ck.region_seg(r).is_some(), "{r} allocated");
                    assert!(slots.contains(&r), "{r} owns a CRC slot");
                }
            }

            let l = ck.layout();
            let m = l.parity_count();
            let table1 = MemoryBreakdown::with_parity(method, l.padded_len(), N, m);
            assert_eq!(
                ck.shm_bytes(),
                table1.total() * 8 + HEADER_BYTES + crc_table_bytes(N)
            );
            Ok(())
        })
        .unwrap();
    }
}

#[test]
fn single_init_creates_exactly_its_table_row() {
    init_creates_exactly_the_table_row(Method::Single, &["work", "b", "c", "header", "crc"]);
}

#[test]
fn double_init_creates_exactly_its_table_row() {
    init_creates_exactly_the_table_row(
        Method::Double,
        &["work", "b", "c", "b1", "c1", "header", "crc"],
    );
}

#[test]
fn self_init_creates_exactly_its_table_row() {
    init_creates_exactly_the_table_row(Method::SelfCkpt, &["work", "b", "c", "d", "header", "crc"]);
}

#[test]
fn a_header_has_committed_once_any_pair_word_is_set() {
    let fresh = Header::default();
    assert!(!fresh.has_committed(), "created but never committed");
    // the single method's attempt marker is not a commit
    let attempted = Header {
        dirty_epoch: 1,
        ..fresh
    };
    assert!(!attempted.has_committed());
    for committed in [
        Header {
            d_epoch: 1,
            ..fresh
        },
        Header {
            bc_epoch: 1,
            ..fresh
        },
        Header {
            pair1_epoch: 1,
            ..fresh
        },
    ] {
        assert!(committed.has_committed(), "{committed:?}");
    }
}

#[test]
fn stats_report_sizes() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
    let rl = Ranklist::round_robin(N, N);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, cfg(Method::SelfCkpt));
        let s = ck.make(&[])?;
        Ok(s)
    })
    .unwrap();
    for s in outs {
        assert_eq!(s.epoch, 1);
        assert_eq!(s.checkpoint_bytes, s.checksum_bytes * (N - 1));
    }
}

#[test]
fn config_builder_round_trips() {
    let c = CkptConfig::new("b", Method::SelfCkpt, 32, 24).with_codec(CodecSpec::Single(Code::Sum));
    assert_eq!(c.method, Method::SelfCkpt);
    assert_eq!(c.codec, CodecSpec::Single(Code::Sum));
    assert_eq!(c.a1_len, 32);
    assert_eq!(c.a2_capacity, 24);
    assert_eq!(c.name, "b");
}

#[test]
fn dual_codec_scrub_repairs_two_damaged_members() {
    // Silent corruption in *two* members of the committed pair: beyond
    // single parity, but exactly within the P+Q budget.
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
    let rl = Ranklist::round_robin(N, N);
    let dual = cfg(Method::SelfCkpt).with_codec(CodecSpec::Dual);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, dual.clone());
        {
            let ws = ck.workspace();
            ws.write().as_f64_mut()[..A1].copy_from_slice(&pattern(ctx.world_rank(), 9));
        }
        ck.make(b"nine")?;
        // the committed pair is (B, X(1)) = (B, D)
        if ctx.world_rank() == 0 {
            let cl = ctx.cluster();
            assert!(flip(cl, 1, Region::CopyB, 0, 0));
            assert!(flip(cl, 3, Region::ChecksumD, 21, 4));
        }
        ctx.world().barrier()?;
        let report = ck.scrub().map_err(|e| match e {
            RecoverError::Fault(f) => f,
            RecoverError::Unrecoverable(m) => panic!("unrecoverable: {m}"),
        })?;
        let ok = ck.verify_integrity()?;
        let name = format!("test/r{}/b", ctx.world_rank());
        let b = ctx.shm().attach(&name).expect("checkpoint copy exists");
        let data = b.read().as_f64()[..A1].to_vec();
        Ok((report, ok, data))
    })
    .unwrap();
    for (rank, (report, ok, data)) in outs.iter().enumerate() {
        assert_eq!(report.repaired, vec![1, 3], "rank {rank}");
        assert!(ok, "rank {rank}: pair must verify after the repair");
        assert_eq!(data, &pattern(rank, 9), "rank {rank} repaired copy");
    }
}

#[test]
fn dual_codec_shm_usage_matches_the_generalised_table() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
    let rl = Ranklist::round_robin(N, N);
    let dual = cfg(Method::SelfCkpt).with_codec(CodecSpec::Dual);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (ck, _) = Checkpointer::init(world, dual.clone());
        Ok((
            ck.shm_bytes(),
            ck.layout().padded_len(),
            ck.layout().parity_len(),
            ck.layout().stripe_len(),
        ))
    })
    .unwrap();
    for (bytes, padded, parity, stripe) in outs {
        // each checksum copy now holds m = 2 stripes
        assert_eq!(parity, 2 * stripe);
        assert_eq!(padded, (N - 2) * stripe);
        let expect = (2 * padded + 2 * parity) * 8 + HEADER_BYTES + crc_table_bytes(N);
        assert_eq!(bytes, expect);
        // generalised Table 1 total: 2MN/(N-m) with M = padded elements
        assert_eq!(2 * padded + 2 * parity, 2 * padded * N / (N - 2));
    }
}

#[test]
fn sum_code_round_trips_through_recovery() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 1)));
    let mut rl = Ranklist::round_robin(N, N);
    cluster.arm_failure(FailurePlan::new(Phase::Done, 1, 0));
    let sum_cfg = cfg(Method::SelfCkpt).with_codec(CodecSpec::Single(Code::Sum));
    let c2 = sum_cfg.clone();
    let res: Result<Vec<()>, Fault> = run_on_cluster(cluster.clone(), &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, c2.clone());
        {
            let ws = ck.workspace();
            ws.write().as_f64_mut()[..A1].copy_from_slice(&pattern(ctx.world_rank(), 7));
        }
        ck.make(b"seven")?;
        loop {
            ctx.failpoint("spin")?;
        }
    });
    assert!(res.is_err());
    cluster.reset_abort();
    rl.repair(&cluster).unwrap();
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, sum_cfg.clone());
        let rec = ck.recover().map_err(|_| Fault::JobAborted)?;
        let ws = ck.workspace();
        let data = ws.read().as_f64()[..A1].to_vec();
        Ok((rec, data))
    })
    .unwrap();
    for (rank, (rec, data)) in outs.iter().enumerate() {
        assert!(matches!(rec, Recovery::Restored { epoch: 1, .. }));
        let expect = pattern(rank, 7);
        for (a, b) in data.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-6, "rank {rank}: {a} vs {b}");
        }
    }
}

/// The durable bytes one `make()` leaves behind, pinned per codec and
/// method: a change to the encode, commit or flush path (a fused
/// copy + CRC, a different reduce shape, a reordered witness) may move
/// time but not a single stored byte or CRC word. The workspace is
/// integer-derived bit patterns (no libm), 200 words so every stripe
/// runs the SIMD kernels' main loop and their tail. Each golden is the
/// CRC-32C over the four ranks' CRC-32Cs of one segment kind, in rank
/// order: `B`, `C`, `D` (0 where the method has none), the CRC table.
#[test]
fn one_make_leaves_the_golden_durable_bytes() {
    use skt_encoding::simd::f64_bytes;
    use skt_encoding::{crc32c, crc32c_f64, KernelConfig};
    const LEN: usize = 200;
    // Taken at the parent of the commit that fused the flush CRC. The
    // self method's rows were re-taken when its parity began to alternate
    // with the epoch: epoch 1 encodes into `D` (the same bytes as before)
    // and no longer copies it into `C`, which stays zero and unwitnessed.
    let golden: [(CodecSpec, Method, [u32; 4]); 9] = [
        (
            CodecSpec::Single(Code::Xor),
            Method::SelfCkpt,
            [0x97ac_42f9, 0xace9_8cd7, 0xf5b6_65a5, 0x06e0_976b],
        ),
        (
            CodecSpec::Single(Code::Xor),
            Method::Double,
            [0x97ac_42f9, 0xf5b6_65a5, 0, 0xf1aa_fb05],
        ),
        (
            CodecSpec::Single(Code::Xor),
            Method::Single,
            [0x97ac_42f9, 0xf5b6_65a5, 0, 0xf1aa_fb05],
        ),
        (
            CodecSpec::Dual,
            Method::SelfCkpt,
            [0xec13_5efc, 0x8c43_f4e0, 0x8e14_4bfa, 0xa5e8_0a3c],
        ),
        (
            CodecSpec::Dual,
            Method::Double,
            [0xec13_5efc, 0x8e14_4bfa, 0, 0x0338_d74e],
        ),
        (
            CodecSpec::Dual,
            Method::Single,
            [0xec13_5efc, 0x8e14_4bfa, 0, 0x0338_d74e],
        ),
        (
            CodecSpec::Rs { m: 2 },
            Method::SelfCkpt,
            [0xec13_5efc, 0x8c43_f4e0, 0x7a80_087e, 0x4294_5688],
        ),
        (
            CodecSpec::Rs { m: 2 },
            Method::Double,
            [0xec13_5efc, 0x7a80_087e, 0, 0x6183_b439],
        ),
        (
            CodecSpec::Rs { m: 2 },
            Method::Single,
            [0xec13_5efc, 0x7a80_087e, 0, 0x6183_b439],
        ),
    ];
    for (codec, method, want) in golden {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
        let rl = Ranklist::round_robin(N, N);
        let per_rank = run_on_cluster(cluster, &rl, |ctx| {
            let rank = ctx.world_rank();
            let cfg = CkptConfig::new("golden", method, LEN, 8).with_codec(codec);
            let (mut ck, _) = Checkpointer::init(ctx.world(), cfg);
            {
                let ws = ck.workspace();
                let mut g = ws.write();
                for (j, v) in g.as_f64_mut()[..LEN].iter_mut().enumerate() {
                    let x = ((rank * LEN + j) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    *v = f64::from_bits(x ^ (x >> 29));
                }
            }
            ck.make(&1u64.to_le_bytes())?;
            let seg = |part: &str| ctx.shm().attach(&format!("golden/r{rank}/{part}"));
            let floats = |part: &str| {
                seg(part).map_or(0, |s| crc32c_f64(s.read().as_f64(), KernelConfig::serial()))
            };
            let table = crc32c(f64_bytes(seg("crc").expect("crc table").read().as_f64()));
            Ok([floats("b"), floats("c"), floats("d"), table])
        })
        .unwrap();
        let got: [u32; 4] = std::array::from_fn(|kind| {
            let words: Vec<u8> = per_rank
                .iter()
                .flat_map(|r| r[kind].to_le_bytes())
                .collect();
            if per_rank.iter().all(|r| r[kind] == 0) {
                0
            } else {
                crc32c(&words)
            }
        });
        assert_eq!(got, want, "{codec:?} {method:?}: got {got:#010x?}");
    }
}

/// The witnessed fill is all-or-nothing: parts that do not cover the
/// segment exactly, or whose stripe boundaries would slide, are a
/// `Fault` and leave both the segment and its witnesses untouched.
#[test]
#[allow(clippy::disallowed_methods)] // exercises the gated primitive itself
fn a_fill_that_does_not_cover_the_segment_exactly_is_refused() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(N, 0)));
    let rl = Ranklist::round_robin(N, N);
    run_on_cluster(cluster, &rl, |ctx| {
        let codec = CodecSpec::Rs { m: 2 };
        let (mut ck, _) = Checkpointer::init(ctx.world(), cfg(Method::SelfCkpt).with_codec(codec));
        ck.make(&1u64.to_le_bytes())?;
        let d = ck
            .region_seg(Region::ChecksumD)
            .cloned()
            .expect("self has D");
        let before = d.read().as_f64().to_vec();
        let s = ck.layout().stripe_len();
        assert_eq!(before.len(), 2 * s, "one stripe per parity role");
        let refused: [&[Vec<f64>]; 5] = [
            &[vec![1.0; s - 1], vec![1.0; s]],     // a short role stripe
            &[vec![1.0; s - 1], vec![1.0; s + 1]], // right total, slid boundary
            &[vec![1.0; s]],                       // segment longer than the data
            &[vec![1.0; s], vec![1.0; s], vec![1.0; s]],
            &[],
        ];
        for parts in refused {
            assert!(matches!(
                ck.fill_stripes(Region::ChecksumD, &d, parts),
                Err(Fault::Protocol(_))
            ));
            assert_eq!(d.read().as_f64(), &before[..]);
            assert!(ck.region_crc_ok(Region::ChecksumD)?);
        }
        ck.fill_stripes(Region::ChecksumD, &d, &[vec![1.0; s], vec![2.0; s]])?;
        assert!(
            ck.region_crc_ok(Region::ChecksumD)?,
            "witnessed as it landed"
        );
        assert_eq!(d.read().as_f64()[s], 2.0);
        Ok(())
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// The window between the damage census and a lent read
// ---------------------------------------------------------------------

use skt_cluster::{Runtime, SimRuntime};
use skt_encoding::simd::f64_bytes;
use std::cell::Cell;
use std::sync::{Mutex, OnceLock, Weak};

thread_local! {
    /// The group rank whose body runs on this thread.
    static ON_RANK: Cell<Option<usize>> = const { Cell::new(None) };
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Trigger {
    /// Waiting for the victim to pass [`RECOVER_REBUILD_PROBE`].
    Armed(u64),
    /// Inside the rebuild: this many `"send"` yields to go.
    Sends(u64),
    Spent,
}

/// A [`SimRuntime`] that applies a [`FaultPlan`]'s action at a yield no
/// probe label reaches: the plan's `nth` `"send"` yield on the victim
/// rank's own thread after that rank entered a rebuild — a send of the
/// syndrome ring, so the fault lands after the damage census and
/// between two of the victim's lends. Everything else is the
/// simulation's.
struct FaultInsideRebuild {
    sim: Arc<SimRuntime>,
    cluster: OnceLock<Weak<Cluster>>,
    rank: usize,
    plan: FaultPlan,
    trigger: Mutex<Trigger>,
}

impl Runtime for FaultInsideRebuild {
    fn is_sim(&self) -> bool {
        true
    }
    fn now(&self) -> Duration {
        self.sim.now()
    }
    fn advance(&self, d: Duration) {
        self.sim.advance(d)
    }
    fn begin_world(&self, nodes: &[usize]) {
        self.sim.begin_world(nodes)
    }
    fn task_enter(&self, rank: usize) {
        self.sim.task_enter(rank)
    }
    fn task_exit(&self, rank: usize) {
        self.sim.task_exit(rank)
    }
    fn drive(&self) {
        self.sim.drive()
    }
    fn park_blocked(&self) -> bool {
        self.sim.park_blocked()
    }
    fn notify(&self) {
        self.sim.notify()
    }
    fn set_stall_wake(&self, step: Option<Duration>) {
        self.sim.set_stall_wake(step)
    }
    fn yield_now(&self, label: &str) {
        self.sim.yield_now(label);
        if ON_RANK.get() == Some(self.rank) {
            let mut t = self.trigger.lock().unwrap();
            *t = match (*t, label) {
                (Trigger::Armed(nth), RECOVER_REBUILD_PROBE) => Trigger::Sends(nth),
                (Trigger::Sends(1), "send") => {
                    let cluster = self.cluster.get().and_then(Weak::upgrade).unwrap();
                    assert!(cluster.apply_fault(self.plan.node, &self.plan.action));
                    Trigger::Spent
                }
                (Trigger::Sends(left), "send") => Trigger::Sends(left - 1),
                (t, _) => t,
            };
        }
    }
}

/// Every byte of every segment on this rank's node.
fn node_image(ctx: &skt_mps::Ctx) -> Vec<(String, Vec<u8>)> {
    let shm = ctx.shm();
    shm.names()
        .into_iter()
        .map(|name| {
            let seg = shm.attach(&name).unwrap();
            let bytes = f64_bytes(seg.read().as_f64()).to_vec();
            (name, bytes)
        })
        .collect()
}

/// What a healing retry leaves on one rank: the verdict, the workspace,
/// the rebuild op's record, and the group's integrity check.
type Healed = (Recovery, Vec<f64>, Option<String>, bool);

/// One group of `N` under `codec`: commit two epochs, lose rank 1
/// between launches, then recover with one bit of survivor rank 2's
/// `region` flipped at its `nth_send` send inside the rebuild. Returns
/// what the retry after that attempt produced.
fn flip_inside_rebuild(
    codec: CodecSpec,
    region: Region,
    nth_send: u64,
) -> Vec<Result<Healed, String>> {
    const LOST: usize = 1;
    const FLIPPED: usize = 2;
    let tag = format!("{codec:?} {region:?} send#{nth_send}");
    let layout = {
        let c = cfg(Method::SelfCkpt);
        let m = codec.parity_count();
        GroupLayout::new_with_parity(N, m, c.a1_len + 1 + c.a2_capacity.div_ceil(8))
    };
    // Aim at a stripe the rebuild still has to read when the ring's
    // sends run: the data stripe rank 2 folds into rank 1's lost parity
    // (phase B), or the parity stripe that finishes a syndrome.
    let stripe = match region {
        Region::CopyB => (0..N)
            .filter(|&s| layout.is_parity_owner(LOST, s))
            .find_map(|s| layout.stripe_of_slot(FLIPPED, s))
            .expect("rank 2 holds data in a slot whose parity rank 1 owned"),
        _ => 0,
    };
    let offset = stripe * layout.stripe_len() * 8 + 13;
    let rt = Arc::new(FaultInsideRebuild {
        sim: SimRuntime::new(nth_send),
        cluster: OnceLock::new(),
        rank: FLIPPED,
        plan: FaultPlan::corrupt("send", nth_send, FLIPPED, region, offset, 6),
        trigger: Mutex::new(Trigger::Spent),
    });
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(N, 1),
        Arc::clone(&rt) as Arc<dyn Runtime>,
    ));
    rt.cluster.set(Arc::downgrade(&cluster)).unwrap();
    let mut rl = Ranklist::round_robin(N, N);
    let ck_cfg = || cfg(Method::SelfCkpt).with_codec(codec);
    run_on_cluster(Arc::clone(&cluster), &rl, |ctx| {
        let (mut ck, _) = Checkpointer::init(ctx.world(), ck_cfg());
        for e in 1..=2u64 {
            let ws = ck.workspace();
            ws.write().as_f64_mut()[..A1].copy_from_slice(&pattern(ctx.world_rank(), e));
            ck.make(&e.to_le_bytes())?;
        }
        Ok(())
    })
    .unwrap();
    cluster.kill_node(LOST);
    cluster.reset_abort();
    rl.repair(&cluster).unwrap();

    // The faulted attempt: the launch returns — nobody parks — with the
    // same typed fault on every rank and nothing of the lost rank's
    // written.
    *rt.trigger.lock().unwrap() = Trigger::Armed(rt.plan.nth);
    let attempt = run_on_cluster(Arc::clone(&cluster), &rl, |ctx| {
        ON_RANK.set(Some(ctx.world_rank()));
        let (mut ck, _) = Checkpointer::init(ctx.world(), ck_cfg());
        let before = node_image(ctx);
        let out = ck.recover();
        Ok((out, before == node_image(ctx)))
    })
    .unwrap_or_else(|f| panic!("{tag}: a rank left the attempt early: {f}"));
    assert_eq!(*rt.trigger.lock().unwrap(), Trigger::Spent, "{tag}: fired");
    for (rank, (out, untouched)) in attempt.iter().enumerate() {
        assert!(
            matches!(out, Err(RecoverError::Fault(Fault::Protocol(why)))
                if why.contains("changed under reconstruction")),
            "{tag}: rank {rank} got {out:?}"
        );
        if rank == LOST {
            assert!(untouched, "{tag}: the lost rank's segments were written");
        }
    }

    run_on_cluster(cluster, &rl, |ctx| {
        let (mut ck, _) = Checkpointer::init(ctx.world(), ck_cfg());
        Ok(match ck.recover() {
            Ok(rec) => {
                let data = ck.workspace().read().as_f64()[..A1].to_vec();
                let ops = ck.last_report().expect("a restore reports").ops;
                let rebuilt = ops
                    .iter()
                    .map(|o| o.op.clone())
                    .find(|o| o.starts_with("rebuild:"));
                Ok((rec, data, rebuilt, ck.verify_integrity()?))
            }
            Err(RecoverError::Unrecoverable(why)) => Err(why),
            Err(RecoverError::Fault(f)) => return Err(f),
        })
    })
    .unwrap_or_else(|f| panic!("{tag}: the retry faulted: {f}"))
}

/// The snapshot `rebuild_regions` used to take was also its guard
/// against a source changing between the census and the read. Reading
/// in place moves the guard to the read itself: whichever send of the
/// syndrome ring the flip lands at, the stripe is still to be lent and
/// the lend catches it.
#[test]
fn a_source_stripe_corrupted_inside_the_rebuild_is_refused_then_healed() {
    let codec = CodecSpec::Dual;
    let ring_sends = ((N - 2) * 2) as u64;
    for region in [Region::CopyB, Region::ParityC] {
        for nth_send in 1..=ring_sends {
            // the retry's census makes the flipped rank one more erasure
            for (rank, out) in flip_inside_rebuild(codec, region, nth_send)
                .into_iter()
                .enumerate()
            {
                let (rec, data, rebuilt, intact) = out.expect("two erasures fit m = 2");
                assert!(matches!(rec, Recovery::Restored { epoch: 2, .. }));
                assert_eq!(data, pattern(rank, 2), "{region:?} rank {rank}");
                assert_eq!(rebuilt.as_deref(), Some("rebuild:b+c[1, 2]"), "rank {rank}");
                assert!(intact, "{region:?} rank {rank}");
            }
        }
    }
}

#[test]
fn a_source_stripe_corrupted_inside_the_rebuild_exceeds_single_parity() {
    let ring_sends = (N - 1) as u64;
    for region in [Region::CopyB, Region::ParityC] {
        for nth_send in 1..=ring_sends {
            for out in flip_inside_rebuild(CodecSpec::default(), region, nth_send) {
                let why = out.expect_err("a lost and a damaged rank exceed m = 1");
                assert!(why.contains("single parity can rebuild only one"), "{why}");
                assert!(why.contains("[1, 2]"), "{why}");
            }
        }
    }
}
