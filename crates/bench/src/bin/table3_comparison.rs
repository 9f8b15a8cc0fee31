//! Table 3 — comparison of fault-tolerant HPL methods: Original HPL,
//! ABFT, BLCR+HDD, BLCR+SSD, SCR+Memory (double in-memory checkpoint),
//! and SKT-HPL (self-checkpoint), each under the same per-rank memory
//! budget, each subjected to a power-off.
//!
//! Regenerate with: `cargo run --release -p skt-bench --bin table3_comparison`

use skt_bench::Table;
use skt_ftsim::{run_table3, Table3Config};

fn main() {
    let cfg = Table3Config {
        nranks: 8,
        nodes: 8,
        budget_elems: 768 * 1024, // ~6 MiB per rank, miniature of the paper's 4 GB
        nb: 32,
        group_size: 4,
        ckpts_per_run: 3,
        seed: 99,
    };
    println!(
        "Table 3: fault-tolerant HPL comparison ({} ranks, {} KiB/rank budget, group {})\n",
        cfg.nranks,
        cfg.budget_elems * 8 / 1024,
        cfg.group_size
    );
    let rows = run_table3(&cfg);

    let mut t = Table::new(vec![
        "Method",
        "Problem N",
        "Runtime (s)",
        "Ckpt time (s)",
        "GFLOPS (w/ ckpt)",
        "Avail. mem (KiB)",
        "Normalized eff",
        "Recover after power-off?",
    ]);
    for r in &rows {
        t.row(vec![
            r.name.clone(),
            format!("{}", r.n),
            format!("{:.3}", r.runtime),
            format!("{:.3}", r.ckpt_time),
            format!("{:.3}", r.gflops),
            format!("{}", r.avail_elems * 8 / 1024),
            format!("{:.2}%", 100.0 * r.normalized_eff),
            if r.recovered {
                "YES".into()
            } else {
                "NO".to_string()
            },
        ]);
    }
    t.print();

    println!(
        "\nPaper (128 procs, 4 GB/proc): Original 100%/NO, ABFT 78.61%/NO, BLCR+HDD 72.53%/YES,"
    );
    println!(
        "BLCR+SSD 87.45%/YES, SCR+Memory 92.10%/YES, SKT-HPL 94.49%/YES — SKT-HPL best of the"
    );
    println!("recoverable methods, with 43% more memory than SCR.");
    let skt = rows.iter().find(|r| r.name == "SKT-HPL").unwrap();
    let scr = rows.iter().find(|r| r.name == "SCR+Memory").unwrap();
    assert!(skt.avail_elems > scr.avail_elems);
    // a method recovered only when its relaunch resumed from the last
    // checkpoint before the power-off, on every rank
    let recovered: Vec<bool> = rows.iter().map(|r| r.recovered).collect();
    assert_eq!(recovered, [false, false, true, true, true, true]);
}
