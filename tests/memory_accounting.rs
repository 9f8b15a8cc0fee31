//! Live memory accounting: the SHM bytes a running checkpointer
//! allocates must match the paper's Table 1 / Equations 2–4 for every
//! method and group size, and the cluster-level totals must add up.

use self_checkpoint::cluster::{Cluster, ClusterConfig, Ranklist};
use self_checkpoint::core::protocol::{crc_table_bytes, HEADER_BYTES};
use self_checkpoint::core::{available_fraction, Checkpointer, CkptConfig, Method};
use self_checkpoint::mps::run_on_cluster;
use std::sync::Arc;

fn live_fraction(method: Method, n: usize, a1: usize) -> (f64, usize) {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(n, 0)));
    let rl = Ranklist::round_robin(n, n);
    let outs = run_on_cluster(Arc::clone(&cluster), &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) = Checkpointer::init(world, CkptConfig::new("acct", method, a1, 0));
        ck.make(&[])?; // populate everything
        Ok((ck.a1_len() * 8, ck.shm_bytes()))
    })
    .unwrap();
    let (app, total) = outs[0];
    // the node-level SHM store must account exactly the same bytes
    let node_total: usize = (0..n).map(|node| cluster.shm(node).total_bytes()).sum();
    assert_eq!(node_total, total * n, "cluster-level accounting mismatch");
    // Equations 2–4 count the data regions; the header and the
    // stripe-CRC table are the rank's only other bytes
    let regions = total - HEADER_BYTES - crc_table_bytes(n);
    (app as f64 / regions as f64, total)
}

#[test]
fn self_checkpoint_matches_equation_2() {
    for n in [2usize, 4, 8, 16] {
        // choose a1 so that a1 + b2 words is a stripe multiple: use a
        // large a1 so padding is negligible, then compare loosely
        let (frac, _) = live_fraction(Method::SelfCkpt, n, 30_000);
        let expect = available_fraction(Method::SelfCkpt, n);
        assert!((frac - expect).abs() < 0.002, "n={n}: {frac} vs {expect}");
    }
}

#[test]
fn double_checkpoint_matches_equation_3() {
    for n in [2usize, 4, 8] {
        let (frac, _) = live_fraction(Method::Double, n, 30_000);
        let expect = available_fraction(Method::Double, n);
        assert!((frac - expect).abs() < 0.002, "n={n}: {frac} vs {expect}");
    }
}

#[test]
fn single_checkpoint_matches_equation_4() {
    for n in [2usize, 4, 8] {
        let (frac, _) = live_fraction(Method::Single, n, 30_000);
        let expect = available_fraction(Method::Single, n);
        assert!((frac - expect).abs() < 0.002, "n={n}: {frac} vs {expect}");
    }
}

#[test]
fn self_checkpoint_uses_less_memory_than_double_for_same_workspace() {
    let (_, self_total) = live_fraction(Method::SelfCkpt, 8, 20_000);
    let (_, double_total) = live_fraction(Method::Double, 8, 20_000);
    let (_, single_total) = live_fraction(Method::Single, 8, 20_000);
    assert!(
        self_total < double_total,
        "self ({self_total}) must beat double ({double_total})"
    );
    assert!(
        single_total < self_total,
        "single ({single_total}) is the floor"
    );
    // for the same workspace, double needs ~(3N-1)/(2N) times the memory
    let ratio = double_total as f64 / self_total as f64;
    assert!(
        (ratio - 23.0 / 16.0).abs() < 0.02,
        "ratio {ratio} (expected (3*8-1)/(2*8))"
    );
}

#[test]
fn dead_node_frees_all_its_checkpoint_memory() {
    let n = 4;
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(n, 0)));
    let rl = Ranklist::round_robin(n, n);
    run_on_cluster(Arc::clone(&cluster), &rl, |ctx| {
        let world = ctx.world();
        let (mut ck, _) =
            Checkpointer::init(world, CkptConfig::new("acct2", Method::SelfCkpt, 5000, 0));
        ck.make(&[])?;
        Ok(())
    })
    .unwrap();
    let before = cluster.shm(2).total_bytes();
    assert!(before > 0);
    cluster.kill_node(2);
    assert_eq!(
        cluster.shm(2).total_bytes(),
        0,
        "power-off must free the node's memory"
    );
    assert!(
        cluster.shm(1).total_bytes() > 0,
        "healthy nodes keep theirs"
    );
}
