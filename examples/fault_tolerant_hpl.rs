//! SKT-HPL end to end: a distributed Linpack run that survives a node
//! power-off mid-elimination — the paper's headline experiment (§6.3),
//! supervised by the master daemon.
//!
//! Run with: `cargo run --release --example fault_tolerant_hpl`

use self_checkpoint::cluster::{Cluster, ClusterConfig, FailurePlan, Ranklist};
use self_checkpoint::ftsim::run_with_daemon;
use self_checkpoint::hpl::{HplConfig, SktConfig, ITER_PROBE};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let (ranks, nodes, spares) = (8, 8, 2);
    let n = 768; // matrix order
    let nb = 32; // panel width
    let group = 4; // checkpoint group size (§3.3)
    let ckpt_every = 4; // panels between checkpoints

    println!("SKT-HPL: n = {n}, nb = {nb}, {ranks} ranks on {nodes} nodes (+{spares} spares)");
    println!("checkpoint group size {group}, checkpoint every {ckpt_every} panels\n");

    let cluster = Arc::new(Cluster::new(ClusterConfig::new(nodes, spares)));
    let ranklist = Ranklist::round_robin(ranks, nodes);

    // power off node 5 after its 10th eliminated panel
    cluster.arm_failure(FailurePlan::new(ITER_PROBE, 10, 5));
    println!("armed: node 5 powers off at its 10th panel\n");

    let cfg = SktConfig::new(HplConfig::new(n, nb, 42), group, ckpt_every);
    let report = run_with_daemon(cluster, &ranklist, &cfg, 3, Duration::from_secs(63));
    let out = report
        .outcome
        .completed()
        .expect("daemon completes the run");

    println!("launches           : {}", report.launches);
    println!("failures survived  : {}", report.failures);
    println!("resumed from panel : {}", out.resumed_from_panel);
    println!("residual           : {:.4e}", out.hpl.residual);
    println!(
        "verification       : {}",
        if out.hpl.passed { "PASSED" } else { "FAILED" }
    );
    println!(
        "performance        : {:.2} GFLOPS ({} checkpoints, {:.3}s checkpoint time)",
        out.hpl.gflops_effective, out.hpl.checkpoints, out.hpl.ckpt_seconds
    );
    for (i, c) in report.cycles.iter().enumerate() {
        let bars: Vec<String> = c
            .iter()
            .map(|(phase, d)| format!("{phase} {:.3?}", d))
            .collect();
        println!("cycle {i}: {}", bars.join("  "));
    }
    if let Some(protocol_report) = &out.recovery {
        println!("protocol           : {protocol_report}");
    }
    assert!(out.hpl.passed);
    println!("\nSKT-HPL tolerated a permanent node loss and still passed HPL verification.");
}
