//! One run of one workload: the untraced pass that yields the
//! end-to-end metrics, or the traced pass that yields the per-layer
//! ones — never both in one process, so tracing cannot tax a gated
//! number.

use crate::host::{nproc, peak_rss_mib, stolen_ms, Host};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::{self, Values};
use crate::stats::{median, quiet, tail};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{service_mix, Checks, Session, Workload, RANKS};
use skt_cluster::SimRuntime;
use skt_ftsim::TenantOutcome;
use skt_hpl::run_skt;
use skt_mps::run_on_cluster;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per untraced run: at least `MIN_SETUPS`, then more while
/// they are cheap (a 0.1 s set-up needs more samples for a steady
/// median than a 1 s one). `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 3.0;

/// Arguments of one run (the driver's contract).
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Write `<prefix>.spans.jsonl` and `<prefix>.chrome.json`.
    pub trace_out: Option<String>,
}

/// What one run produced.
#[derive(Debug)]
pub struct RunOutput {
    pub checks: Checks,
    pub values: Values,
    /// The samples behind `op_ms_p50` (untraced) or behind the traced
    /// p50 (traced): the timed operations the hypervisor left alone.
    pub op_ms: Vec<f64>,
    /// Timed operations in all, and their median.
    pub timed_ops: usize,
    pub all_ops_p50: f64,
    pub host: Host,
}

pub fn run(args: &RunArgs) -> RunOutput {
    let host = Host::detect();
    let mut checks = Checks::default();
    let (values, op_ms, all_ms) = if args.trace {
        traced(args, &mut checks)
    } else {
        untraced(args, &mut checks)
    };
    RunOutput {
        checks,
        values,
        op_ms,
        timed_ops: all_ms.len(),
        all_ops_p50: median(&all_ms),
        host,
    }
}

fn untraced(args: &RunArgs, checks: &mut Checks) -> (Values, Vec<f64>, Vec<f64>) {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut setups = Vec::new();
    while setups.len() + 1 < MIN_SETUPS
        || (setups.len() + 1 < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // each set-up's state is dropped before the next is built, so
        // peak RSS stays that of one
        setups.push(args.workload.session(args.seed, None, None, checks).setup_s);
    }
    let s = args.workload.session(args.seed, Some(budget), None, checks);
    setups.push(s.setup_s);
    checks.check(!s.ops.is_empty(), || {
        "no timed operation completed".to_string()
    });
    let used = quiet(&s.ops, nproc());
    let mut v = Values::new();
    v.insert("op_ms_p50", median(&used));
    v.insert("setup_s", median(&setups));
    v.insert("peak_rss_mib", peak_rss_mib());
    assert_eq!(v.len(), END_TO_END.len());
    (v, used, s.op_ms())
}

fn traced(args: &RunArgs, checks: &mut Checks) -> (Values, Vec<f64>, Vec<f64>) {
    let w = args.workload;
    let ctx = w.layer_ctx();
    let tracer = Tracer::new();
    let (stolen0, t_pass) = (stolen_ms(), Instant::now());
    let root = tracer.open(w.name(), None);
    let mut v = probes::run_all(&ctx, args.seed, &tracer, checks);

    // Same inputs, a quarter of the time untraced (the overhead
    // reference), half of it traced.
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let reference = w.session(args.seed, Some(quarter), None, checks);
    let t_traced = Instant::now();
    let s = w.session(args.seed, Some(2 * quarter), Some(&tracer), checks);
    let traced_wall = t_traced.elapsed().as_secs_f64();
    tracer.close(root);
    checks.check(!s.ops.is_empty() && !reference.ops.is_empty(), || {
        "no timed operation completed".to_string()
    });

    v.insert(
        "host.steal_frac",
        (stolen_ms() - stolen0) / (t_pass.elapsed().as_secs_f64() * 1e3 * nproc() as f64),
    );
    let spans = tracer.spans();
    let used = quiet(&s.ops, nproc());
    let p50 = median(&used);
    let p50_untraced = median(&quiet(&reference.ops, nproc()));
    v.insert(
        "bench.trace_overhead_frac",
        (p50 - p50_untraced) / p50_untraced,
    );
    phase_metrics(&spans, ctx.a1_len, &mut v);
    match w {
        Workload::CycleXor | Workload::CycleRs2 => {
            make_metrics(&s, &spans, &mut v);
            v.insert("core.make_ms_p95", tail(&s.op_ms(), 95));
        }
        Workload::FailRecoverRs2 => {
            make_span_metrics(&spans, &mut v);
            v.insert("core.recover_ms_p75", tail(&s.op_ms(), 75));
        }
        Workload::HplSkt => hpl_metrics(&s, &mut v),
        Workload::ServiceMix => {
            service_metrics(&s, args.seed, &mut v, checks);
            v.insert("ftsim.makespan_ms_p95", tail(&s.op_ms(), 95));
        }
    }
    // A metric that does not apply to this workload reads 0.
    for m in &PER_LAYER {
        v.entry(m.name).or_insert(0.0);
    }
    assert_eq!(
        v.len(),
        PER_LAYER.len(),
        "a probe emitted an unregistered name"
    );
    if let Some(prefix) = &args.trace_out {
        let written = trace::write_files(prefix, &spans);
        checks.check(written.is_ok(), || {
            format!("writing {prefix}.*: {written:?}")
        });
    }
    eprintln!(
        "traced pass: {} spans, {} timed ops in {traced_wall:.1} s (untraced reference: {} ops)",
        spans.len(),
        s.ops.len(),
        reference.ops.len()
    );
    (v, used, s.op_ms())
}

/// Phase spans arrive from every rank that made a checkpoint, whatever
/// the workload; the flush phases carry the `BytesMoved` counts.
fn phase_metrics(spans: &[Span], a1_len: usize, v: &mut Values) {
    for (metric, label) in [
        ("core.phase_a2_ms", "ckpt-a2"),
        ("core.phase_encode_ms", "ckpt-encode"),
        ("core.phase_flush_b_ms", "ckpt-flush-b"),
        ("core.phase_flush_c_ms", "ckpt-flush-c"),
    ] {
        v.insert(metric, median(&trace::durations_ms(spans, label)));
    }
    let makes = spans.iter().filter(|s| s.name == "ckpt-flush-c").count();
    if makes > 0 {
        let moved: u64 = spans
            .iter()
            .filter(|s| s.name == "ckpt-flush-b" || s.name == "ckpt-flush-c")
            .map(|s| s.counts.bytes_moved)
            .sum();
        let per_make = moved as f64 / makes as f64;
        v.insert("core.bytes_moved_per_make", per_make);
        v.insert(
            "core.bytes_moved_per_protected_byte",
            per_make / (a1_len * 8) as f64,
        );
    }
}

/// Collectives counted inside rank 0's `make` spans.
fn make_span_metrics(spans: &[Span], v: &mut Values) {
    let totals = trace::inclusive_counts(spans);
    let makes: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "make" && s.rank == Some(0))
        .collect();
    if makes.is_empty() {
        return;
    }
    let n = makes.len() as f64;
    let sum = |f: fn(&trace::Counts) -> u64| makes.iter().map(|s| f(&totals[s.id])).sum::<u64>();
    v.insert(
        "mps.collectives_per_make",
        sum(|c| c.collectives) as f64 / n,
    );
    v.insert(
        "mps.collective_bytes_per_make",
        sum(|c| c.collective_bytes) as f64 / n,
    );
    v.insert(
        "mps.collective_ms_per_make",
        sum(|c| c.collective_ns) as f64 / n / 1e6,
    );
}

/// `core.make_*`: what `CkptStats` says about the timed makes.
fn make_metrics(s: &Session, spans: &[Span], v: &mut Values) {
    make_span_metrics(spans, v);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let encode: Vec<f64> = s.ckpt.iter().map(|c| ms(c.encode)).collect();
    let flush: Vec<f64> = s.ckpt.iter().map(|c| ms(c.flush)).collect();
    let op_ms = s.op_ms();
    let other: Vec<f64> = op_ms
        .iter()
        .zip(&s.ckpt)
        .map(|(make, c)| make - ms(c.encode) - ms(c.flush))
        .collect();
    let Some(first) = s.ckpt.first() else {
        return;
    };
    v.insert("core.make_encode_ms", median(&encode));
    v.insert("core.make_flush_ms", median(&flush));
    v.insert("core.make_other_ms", median(&other));
    let total_s: f64 = op_ms.iter().sum::<f64>() / 1e3;
    let group_bytes = (RANKS * first.checkpoint_bytes * op_ms.len()) as f64;
    v.insert("core.make_GBps", group_bytes / total_s / 1e9);
    let memcpy = v["host.memcpy_GBps"];
    let flushed = (first.checkpoint_bytes + first.checksum_bytes) as f64;
    v.insert(
        "core.flush_of_memcpy",
        flushed / (median(&flush) / 1e3) / 1e9 / memcpy,
    );
    v.insert(
        "core.make_of_memcpy",
        first.checkpoint_bytes as f64 / (median(&op_ms) / 1e3) / 1e9 / memcpy,
    );
}

/// `hpl.*` from the outputs of each traced triple.
fn hpl_metrics(s: &Session, v: &mut Values) {
    let col = |f: &dyn Fn(&crate::workloads::hpl_skt::Rep) -> Option<f64>| -> f64 {
        median(&s.hpl.iter().filter_map(f).collect::<Vec<f64>>())
    };
    v.insert("hpl.compute_s", col(&|r| Some(r.skt.compute_seconds)));
    v.insert("hpl.ckpt_s", col(&|r| Some(r.skt.ckpt_seconds)));
    v.insert("hpl.encode_s", col(&|r| Some(r.skt.encode_seconds)));
    v.insert(
        "hpl.ckpt_share",
        col(&|r| Some(r.skt.ckpt_seconds / (r.skt.compute_seconds + r.skt.ckpt_seconds))),
    );
    v.insert("hpl.gflops_compute", col(&|r| Some(r.skt.gflops_compute)));
    v.insert(
        "hpl.gflops_plain",
        col(&|r| r.plain.map(|p| p.gflops_effective)),
    );
    v.insert(
        "hpl.other_s",
        col(&|r| Some(r.solve.ms / 1e3 - r.skt.compute_seconds - r.skt.ckpt_seconds)),
    );
    v.insert(
        "hpl.nockpt_ratio",
        col(&|r| Some(r.nockpt?.gflops_effective / r.plain?.gflops_effective)),
    );
    v.insert(
        "hpl.efficiency",
        col(&|r| Some(r.skt.gflops_effective / r.plain?.gflops_effective)),
    );
}

/// `ftsim.*` from the service reports, and `sim.*` from one run of the
/// same configuration on the deterministic scheduler.
fn service_metrics(s: &Session, seed: u64, v: &mut Values, checks: &mut Checks) {
    let Some(first) = s.service.first() else {
        return;
    };
    let total = |f: fn(&skt_ftsim::TenantReport) -> usize| -> f64 {
        first.tenants.iter().map(f).sum::<usize>() as f64
    };
    let slices = total(|t| t.slices);
    v.insert("ftsim.slices", slices);
    v.insert("ftsim.launches", total(|t| t.launches));
    v.insert("ftsim.failures", total(|t| t.failures));
    v.insert("ftsim.resizes", total(|t| t.resizes.len()));
    let makespan_ms = median(&s.op_ms());
    v.insert("ftsim.slice_ms", makespan_ms / slices);
    v.insert(
        "ftsim.tenants_per_s",
        service_mix::TENANTS.len() as f64 / (makespan_ms / 1e3),
    );
    let healed: Vec<f64> = s
        .service
        .iter()
        .flat_map(|r| r.tenants.iter().flat_map(|t| t.cycles.iter()))
        .map(|c| c.total().as_secs_f64() * 1e3)
        .collect();
    v.insert("ftsim.recover_cycle_ms", median(&healed));

    // What the same three jobs cost alone: whole-job runs, no slices,
    // no kill, no resize.
    let mut solo_s = 0.0;
    for i in 0..service_mix::TENANTS.len() {
        let cfg = service_mix::tenant_config(seed, i);
        let cluster = Arc::new(skt_cluster::Cluster::new(skt_cluster::ClusterConfig::new(
            service_mix::SHARD,
            0,
        )));
        let rl = skt_cluster::Ranklist::round_robin(service_mix::SHARD, service_mix::SHARD);
        match run_on_cluster(cluster, &rl, |ctx| run_skt(ctx, &cfg)) {
            Ok(outs) => {
                checks.check(outs[0].hpl.passed, || {
                    format!("solo {}: residual", cfg.name)
                });
                solo_s += outs[0].hpl.compute_seconds + outs[0].hpl.ckpt_seconds;
            }
            Err(f) => checks.check(false, || format!("solo {} faulted: {f}", cfg.name)),
        }
    }
    v.insert(
        "ftsim.sched_overhead_frac",
        1.0 - solo_s / (makespan_ms / 1e3),
    );

    let rt = SimRuntime::new(seed);
    let (report, sim_run) = service_mix::run_once(seed, Some(rt.clone()), None);
    let completed = report
        .tenants
        .iter()
        .all(|t| matches!(&t.outcome, TenantOutcome::Completed(o) if o.hpl.passed));
    checks.check(
        completed && report.tenants.len() == service_mix::TENANTS.len(),
        || format!("sim run: {}", report.fingerprint(false)),
    );
    v.insert("sim.steps", rt.steps() as f64);
    v.insert("sim.step_us", sim_run.ms * 1e3 / rt.steps() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cheapest workload, for a moment: an untraced run emits
    /// exactly the end-to-end names, verifies its outputs, and times at
    /// least one operation.
    #[test]
    fn an_untraced_run_emits_exactly_the_end_to_end_names() {
        let out = run(&RunArgs {
            workload: Workload::ServiceMix,
            seed: 3,
            seconds: 0.05,
            trace: false,
            trace_out: None,
        });
        let emitted: Vec<&str> = out.values.keys().copied().collect();
        let mut registered: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        registered.sort_unstable();
        assert_eq!(emitted, registered);
        assert!(out.values.values().all(|v| *v > 0.0), "{:?}", out.values);
        assert_eq!(out.checks.failed, 0, "{:?}", out.checks.notes);
        assert!(out.checks.attempted > 0 && out.timed_ops >= 1);
    }
}
