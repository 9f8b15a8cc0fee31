//! Table 1 — memory usage of the self-checkpoint mechanism per part
//! (`A1+A2`, `B`, `C`, `D`, total `2MN/(N-1)`), validated byte for byte
//! against the live SHM segments of a running checkpointer, whose commit
//! header and stripe-CRC table are printed as parts of their own.
//!
//! Regenerate with: `cargo run -p skt-bench --bin table1_memory`

use skt_bench::Table;
use skt_cluster::{Cluster, ClusterConfig, Ranklist};
use skt_core::protocol::{crc_table_bytes, HEADER_BYTES};
use skt_core::{Checkpointer, CkptConfig, MemoryBreakdown, Method};
use skt_mps::run_on_cluster;
use std::sync::Arc;

fn main() {
    let n = 16usize; // group size, the paper's choice
    let m = 15_000usize; // per-rank data elements (divisible by N-1)

    println!("Table 1: memory usage of the self-checkpoint mechanism (group size N = {n})\n");
    let b = MemoryBreakdown::new(Method::SelfCkpt, m, n);
    let mut t = Table::new(vec!["Item", "A1+A2", "B", "C", "D", "Total"]);
    t.row(vec![
        "Size (analytic)".to_string(),
        "M".into(),
        "M".into(),
        "M/(N-1)".into(),
        "M/(N-1)".into(),
        "2MN/(N-1)".into(),
    ]);
    t.row(vec![
        format!("Elements (M = {m})"),
        format!("{}", b.a),
        format!("{}", b.checkpoints),
        format!("{}", b.checksums / 2),
        format!("{}", b.checksums / 2),
        format!("{}", b.total()),
    ]);
    t.print();
    assert_eq!(b.total(), 2 * m * n / (n - 1), "closed form check");

    // live validation: run a group of 4 and measure actual SHM bytes
    let live_n = 4usize;
    let live_a1 = 3 * 1024usize;
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(live_n, 0)));
    let rl = Ranklist::round_robin(live_n, live_n);
    let bytes = run_on_cluster(cluster, &rl, |ctx| {
        let world = ctx.world();
        let (ck, _) = Checkpointer::init(
            world,
            CkptConfig::new("table1", Method::SelfCkpt, live_a1, 0),
        );
        Ok((ck.shm_bytes(), ck.layout().padded_len()))
    })
    .unwrap();
    let (shm, padded) = bytes[0];
    // Table 1's parts at the padded workspace, plus what a rank holds
    // beyond them: the commit header and the stripe-CRC table.
    let live = MemoryBreakdown::new(Method::SelfCkpt, padded, live_n);
    let crc = crc_table_bytes(live_n);
    let expect = live.total() * 8 + HEADER_BYTES + crc;
    println!("\nLive validation (group {live_n}, a1 = {live_a1} elements, M = {padded} padded):");
    let mut t = Table::new(vec!["Part", "Bytes per rank"]);
    for (part, bytes) in [
        ("A1+A2 (M)", live.a * 8),
        ("B (M)", live.checkpoints * 8),
        ("C + D (2M/(N-1))", live.checksums * 8),
        ("header", HEADER_BYTES),
        ("stripe-CRC table", crc),
        ("expected total", expect),
        ("live SHM segments", shm),
    ] {
        t.row(vec![part.to_string(), bytes.to_string()]);
    }
    t.print();
    assert_eq!(
        shm, expect,
        "live segments must match Table 1 + header + CRC table"
    );
    println!("  MATCH");
}
