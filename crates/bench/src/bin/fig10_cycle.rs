//! Figure 10 — time per phase of the work-fail-detect-restart cycle.
//!
//! A node is powered off mid-run; the daemon detects the abort, replaces
//! the node with a spare, relaunches SKT-HPL, and recovery restores data
//! from the in-memory checkpoints. *detect* uses the platform's measured
//! job-manager latency (63 s on Tianhe-2, the paper's value); the other
//! phases are measured live on the virtual cluster, with the paper's
//! Tianhe-2 measurements printed alongside for comparison.
//!
//! Regenerate with: `cargo run --release -p skt-bench --bin fig10_cycle`

use skt_bench::Table;
use skt_cluster::{Cluster, ClusterConfig, FailurePlan, Ranklist};
use skt_ftsim::{run_with_daemon, CyclePhase};
use skt_hpl::{HplConfig, SktConfig, ITER_PROBE};
use skt_models::TIANHE_2;
use std::sync::Arc;
use std::time::Duration;

/// Figure 10's caption for each bar, with the paper's Tianhe-2 value.
fn paper_row(phase: CyclePhase) -> (&'static str, &'static str) {
    match phase {
        CyclePhase::Detect => ("detect the failure and kill the job", "63 s"),
        CyclePhase::Replace => ("replace lost nodes by spare nodes", "10 s"),
        CyclePhase::Restart => ("restart SKT-HPL", "9 s"),
        CyclePhase::Recover => ("recover data", "20 s"),
        CyclePhase::Checkpoint => ("checkpoint", "16 s"),
        _ => (phase.label(), "-"),
    }
}

fn main() {
    let (ranks, nodes, spares) = (8usize, 8usize, 1usize);
    let n = 512usize;
    let nb = 32usize;
    let cfg = SktConfig::new(HplConfig::new(n, nb, 5), 4, 3);

    let cluster = Arc::new(Cluster::new(ClusterConfig::new(nodes, spares)));
    let rl = Ranklist::round_robin(ranks, nodes);
    // power off node 3 after its 8th panel (past two checkpoints)
    cluster.arm_failure(FailurePlan::new(ITER_PROBE, 8, 3));

    let detect = Duration::from_secs_f64(TIANHE_2.detect_seconds);
    let rep = run_with_daemon(cluster, &rl, &cfg, 3, detect);
    let out = rep.outcome.completed().expect("daemon must finish the run");
    assert_eq!(rep.failures, 1, "exactly one injected failure");
    assert!(out.hpl.passed, "the restarted run must verify");
    let c = rep.cycles[0];

    println!("Figure 10: work-fail-detect-restart cycle phases\n");
    let mut t = Table::new(vec![
        "Phase",
        "measured (virtual cluster)",
        "paper (Tianhe-2, 24,576 procs)",
    ]);
    for (phase, measured) in c.iter() {
        let (caption, paper) = paper_row(phase);
        let note = if phase == CyclePhase::Detect {
            " (modeled, job manager)"
        } else {
            ""
        };
        t.row(vec![
            caption.to_string(),
            format!("{:.4} s{note}", measured.as_secs_f64()),
            paper.into(),
        ]);
    }
    t.print();
    println!(
        "\nShape check: recovery ({:.4} s) is somewhat longer than a checkpoint ({:.4} s), \
         as in the paper (20 s vs 16 s): recovery does the same reduces plus reassembly.",
        c.get(CyclePhase::Recover).as_secs_f64(),
        c.get(CyclePhase::Checkpoint).as_secs_f64()
    );
    println!(
        "Cycle total: {:.2} s across all phases.",
        c.total().as_secs_f64()
    );
    match &out.recovery {
        Some(report) => println!("Protocol report: {report}"),
        None => println!("Protocol report: none (run was never restored)"),
    }
    println!(
        "Run resumed from panel {} and passed verification (residual {:.3}).",
        out.resumed_from_panel, out.hpl.residual
    );
}
