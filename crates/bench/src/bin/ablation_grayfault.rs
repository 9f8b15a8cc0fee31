//! Ablation: the two costs of the gray-failure ladder (DESIGN.md §5i) —
//! suspicion detection latency (virtual time from injection to
//! declaration) swept over the heartbeat interval, and the end-to-end
//! price of a fence-and-migrate cycle swept over the parity codec.
//!
//! Regenerate with: `cargo run --release -p skt-bench --bin ablation_grayfault`

use skt_bench::Table;
use skt_cluster::{
    Cluster, ClusterConfig, Event, FaultPlan, GrayKind, HeartbeatConfig, Observer, Ranklist,
    Runtime, SimRuntime,
};
use skt_encoding::CodecSpec;
use skt_ftsim::run_with_daemon;
use skt_hpl::{HplConfig, SktConfig, ITER_PROBE};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One 4-member group over four nodes plus one spare, so every codec
/// (m = 1, 2, 3) is well-formed.
const NODES: usize = 4;
const VICTIM: usize = 1;
/// Sim seeds each row is the median over.
const SEEDS: u64 = 5;

fn skt_cfg(codec: CodecSpec) -> SktConfig {
    let mut cfg = SktConfig::new(HplConfig::new(48, 4, 7), NODES, 2);
    cfg.codec = codec;
    cfg
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// Clock-reading observer: timestamps the gray injection and the first
/// suspicion declaration on the cluster's own (virtual) clock.
struct DetectionWatch {
    clock: Arc<dyn Runtime>,
    injected: Mutex<Option<Duration>>,
    declared: Mutex<Option<Duration>>,
}

impl Observer for DetectionWatch {
    fn on_event(&self, event: &Event) {
        match event {
            Event::GrayInjected { .. } => {
                *self.injected.lock().unwrap() = Some(self.clock.now());
            }
            Event::SuspicionDeclared { .. } => {
                let mut d = self.declared.lock().unwrap();
                if d.is_none() {
                    *d = Some(self.clock.now());
                }
            }
            _ => {}
        }
    }
}

/// One hang injection under `interval`: virtual time from injection to
/// the peers' declaration. The heartbeat model bounds it by roughly
/// `(threshold + 1) × interval`, and the sweep shows exactly that knee.
fn detection_latency(interval: Duration, seed: u64) -> Duration {
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(NODES, 1),
        SimRuntime::new(seed),
    ));
    cluster.monitor().set_config(HeartbeatConfig {
        interval,
        ..HeartbeatConfig::default()
    });
    let watch = Arc::new(DetectionWatch {
        clock: Arc::clone(cluster.runtime()),
        injected: Mutex::new(None),
        declared: Mutex::new(None),
    });
    cluster.events().subscribe(Arc::clone(&watch) as _);
    // arm after the config so the stall wake adopts the interval
    cluster.arm_failure(FaultPlan::gray(ITER_PROBE, 3, VICTIM, GrayKind::Hang));
    let rl = Ranklist::round_robin(NODES, NODES);
    let cfg = skt_cfg(CodecSpec::default());
    let rep = run_with_daemon(cluster, &rl, &cfg, 3, Duration::from_millis(1));
    rep.outcome
        .completed()
        .expect("a hung node is migrated, never fatal");
    let injected = watch.injected.lock().unwrap().expect("fault injected");
    let declared = watch.declared.lock().unwrap().expect("suspect declared");
    declared.saturating_sub(injected)
}

/// One daemon run on the simulated clock, wall time of the whole ladder:
/// with `gray` a non-healing 64× straggler is declared, probed, fenced,
/// and its shard rebuilt onto the spare; without, the same solve runs
/// fault-free (the baseline the migration cost is read against).
fn migration_run(codec: CodecSpec, gray: bool, seed: u64) -> Duration {
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(NODES, 1),
        SimRuntime::new(seed),
    ));
    if gray {
        cluster.arm_failure(FaultPlan::gray(
            ITER_PROBE,
            3,
            VICTIM,
            GrayKind::Slow { factor: 64 },
        ));
    }
    let rl = Ranklist::round_robin(NODES, NODES);
    let t = Instant::now();
    let rep = run_with_daemon(cluster, &rl, &skt_cfg(codec), 3, Duration::from_millis(1));
    let elapsed = t.elapsed();
    let out = rep.outcome.completed().expect("both runs must complete");
    assert!(out.hpl.passed, "residual must verify");
    assert_eq!(rep.failures, usize::from(gray), "one migration, or none");
    elapsed
}

fn main() {
    println!("Ablation 1: suspicion detection latency vs heartbeat interval");
    println!("(virtual clock, hang at panel 3, median of {SEEDS} sim seeds)\n");
    let mut t = Table::new(vec!["interval (us)", "latency (us)", "latency / interval"]);
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for micros in [50u64, 100, 200, 400, 800] {
        let interval = Duration::from_micros(micros);
        let latency = median((0..SEEDS).map(|s| detection_latency(interval, s)).collect());
        let ratio = latency.as_secs_f64() / interval.as_secs_f64();
        t.row(vec![
            micros.to_string(),
            format!("{:.1}", latency.as_secs_f64() * 1e6),
            format!("{ratio:.2}"),
        ]);
        (lo, hi) = (lo.min(ratio), hi.max(ratio));
    }
    t.print();
    assert!(
        hi <= 1.15 * lo,
        "detection latency must be linear in the heartbeat interval: ratios {lo:.2}..{hi:.2}"
    );
    println!("\nShape check: the ratio stays within {lo:.2}..{hi:.2} (linear within 15%).\n");

    println!("Ablation 2: fence-and-migrate cost vs parity codec");
    println!("(wall time of a whole daemon run, 64x straggler at panel 3, median of {SEEDS} sim seeds)\n");
    let mut t = Table::new(vec![
        "codec",
        "fault-free (ms)",
        "migrate (ms)",
        "migrate / fault-free",
    ]);
    for (name, codec) in [
        ("single", CodecSpec::default()),
        ("dual", CodecSpec::Dual),
        ("rs3", CodecSpec::rs(3)),
    ] {
        // alternate the two, so a host that changes speed mid-table
        // slows both columns alike
        let (clean, migrate): (Vec<_>, Vec<_>) = (0..SEEDS)
            .map(|s| {
                (
                    migration_run(codec, false, s),
                    migration_run(codec, true, s),
                )
            })
            .unzip();
        let (clean, migrate) = (median(clean), median(migrate));
        assert!(
            migrate >= clean,
            "{name}: a migration ({migrate:?}) cannot be cheaper than no fault ({clean:?})"
        );
        t.row(vec![
            name.to_string(),
            format!("{:.2}", clean.as_secs_f64() * 1e3),
            format!("{:.2}", migrate.as_secs_f64() * 1e3),
            format!("{:.2}", migrate.as_secs_f64() / clean.as_secs_f64()),
        ]);
    }
    t.print();
    println!(
        "\nShape check: every migrate run pays a probe, a fence and a shard rebuild on top of"
    );
    println!("the fault-free solve; every run's residual verified.");
}
