//! Cross-crate tests of the runtime substrate's MPI-like semantics —
//! the properties the checkpoint protocol's correctness argument leans
//! on: message ordering, collective determinism, abort propagation, and
//! SHM persistence.

use self_checkpoint::cluster::{Cluster, ClusterConfig, FailurePlan, Ranklist, SegmentData};
use self_checkpoint::mps::{run_local, run_on_cluster, Payload, ReduceOp};
use std::sync::Arc;

#[test]
fn point_to_point_preserves_per_pair_order() {
    let outs = run_local(2, |ctx| {
        let w = ctx.world();
        if ctx.world_rank() == 0 {
            for i in 0..100i64 {
                w.send(1, 7, Payload::I64(vec![i]))?;
            }
            Ok(Vec::new())
        } else {
            let mut got = Vec::with_capacity(100);
            for _ in 0..100 {
                got.push(w.recv(0, 7)?.into_i64()[0]);
            }
            Ok(got)
        }
    })
    .unwrap();
    assert_eq!(outs[1], (0..100).collect::<Vec<i64>>());
}

#[test]
fn send_to_self_works() {
    let outs = run_local(1, |ctx| {
        let w = ctx.world();
        w.send(0, 3, Payload::F64(vec![2.5]))?;
        Ok(w.recv(0, 3)?.into_f64()[0])
    })
    .unwrap();
    assert_eq!(outs[0], 2.5);
}

#[test]
fn float_sum_reduce_is_deterministic_across_runs() {
    // the tree order is fixed, so float rounding is reproducible — the
    // property that makes recovered HPL runs bit-identical
    let run = || {
        run_local(7, |ctx| {
            let w = ctx.world();
            let v = (ctx.world_rank() as f64 + 1.0).recip();
            Ok(w.allreduce(ReduceOp::Sum, Payload::F64(vec![v]))?
                .into_f64()[0])
        })
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert!(a.windows(2).all(|w| w[0] == w[1]), "all ranks identical");
}

#[test]
fn reduce_works_at_every_size_and_root() {
    for n in 1..=9 {
        let outs = run_local(n, move |ctx| {
            let w = ctx.world();
            let mut results = Vec::new();
            for root in 0..n {
                let r = w.reduce(ReduceOp::Sum, root, Payload::I64(vec![1]))?;
                results.push(r.map(|p| p.into_i64()[0]));
            }
            Ok(results)
        })
        .unwrap();
        for (rank, results) in outs.iter().enumerate() {
            for (root, r) in results.iter().enumerate() {
                if rank == root {
                    assert_eq!(*r, Some(n as i64), "n={n} root={root}");
                } else {
                    assert_eq!(*r, None);
                }
            }
        }
    }
}

#[test]
fn abort_unblocks_a_rank_stuck_in_recv() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(2, 0)));
    cluster.arm_failure(FailurePlan::new("tick", 3, 0));
    let rl = Ranklist::round_robin(2, 2);
    let res: Result<Vec<()>, _> = run_on_cluster(cluster.clone(), &rl, |ctx| {
        let w = ctx.world();
        if ctx.world_rank() == 0 {
            loop {
                ctx.failpoint("tick")?;
            }
        } else {
            // blocks forever unless the abort wakes it
            w.recv(0, 99)?;
            Ok(())
        }
    });
    assert!(res.is_err());
    assert!(cluster.aborted());
}

#[test]
fn shm_segments_survive_many_launch_cycles() {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(3, 0)));
    let rl = Ranklist::round_robin(3, 3);
    for round in 0..5u64 {
        let outs = run_on_cluster(Arc::clone(&cluster), &rl, move |ctx| {
            let (seg, existed) = ctx
                .shm()
                .get_or_create("counter", || SegmentData::F64(vec![0.0]));
            let prev = seg.read().as_f64()[0];
            seg.write().as_f64_mut()[0] = prev + 1.0;
            Ok((existed, prev))
        })
        .unwrap();
        for (existed, prev) in outs {
            assert_eq!(existed, round > 0, "round {round}");
            assert_eq!(prev, round as f64, "round {round}");
        }
    }
}

#[test]
fn collectives_interleave_with_p2p_without_crosstalk() {
    let outs = run_local(4, |ctx| {
        let w = ctx.world();
        let me = w.rank();
        // p2p ring while collectives run in between
        w.send((me + 1) % 4, 5, Payload::I64(vec![me as i64]))?;
        let s1 = w
            .allreduce(ReduceOp::Sum, Payload::I64(vec![1]))?
            .into_i64()[0];
        let from = w.recv((me + 3) % 4, 5)?.into_i64()[0];
        let s2 = w
            .allreduce(ReduceOp::Max, Payload::I64(vec![from]))?
            .into_i64()[0];
        Ok((s1, from, s2))
    })
    .unwrap();
    for (rank, (s1, from, s2)) in outs.iter().enumerate() {
        assert_eq!(*s1, 4);
        assert_eq!(*from, ((rank + 3) % 4) as i64);
        assert_eq!(*s2, 3, "max of all ring values");
    }
}

#[test]
fn ranks_sharing_nodes_see_the_same_shm() {
    // 4 ranks on 2 nodes: node-mates share the store
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(2, 0)));
    let rl = Ranklist::round_robin(4, 2);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let w = ctx.world();
        let me = w.rank();
        // even ranks (node 0) write; everyone barriers; odd ranks read
        if ctx.node() == 0 && me == 0 {
            ctx.shm()
                .get_or_create("shared", || SegmentData::F64(vec![42.0]));
        }
        w.barrier()?;
        Ok((ctx.node(), ctx.shm().attach("shared").is_some()))
    })
    .unwrap();
    for (node, seen) in outs {
        assert_eq!(seen, node == 0, "only node 0's ranks see the segment");
    }
}
