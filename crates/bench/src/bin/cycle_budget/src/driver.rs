//! The whole benchmark in one command: every workload, in interleaved
//! rounds of child processes.
//!
//! On a small shared VM neighbour noise comes in bursts of tens of
//! seconds: per-make medians drift by a factor of two while medians
//! inside a quiet window agree within a few percent. Round *r* therefore
//! runs every workload once, each as its own child process (so peak RSS
//! is the workload's own), and the samples of all rounds are pooled per
//! workload before the median: a burst then taxes every workload a
//! little instead of one workload a lot. The traced pass runs in the
//! first round only.
//!
//! `--selfcheck` runs the whole set twice (A/A, the two sets' rounds
//! alternating) and fails when an end-to-end metric differs by more
//! than its own bound or an exact count differs at all.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{iqr_over_median, median, pool};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

pub const DEFAULT_SECONDS: f64 = 4.0;
pub const DEFAULT_ROUNDS: usize = 4;

/// What one child run reported.
#[derive(Debug, Default, PartialEq)]
struct Child {
    values: BTreeMap<String, f64>,
    op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Read a child's standard output: the `#samples` line and the result
/// line that ends it.
fn parse_child(stdout: &str) -> Result<Child, String> {
    let mut child = Child::default();
    if let Some(line) = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#samples op_ms"))
    {
        for tok in line.split_whitespace() {
            child
                .op_ms
                .push(tok.parse().map_err(|e| format!("bad sample {tok}: {e}"))?);
        }
    }
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    let v = Json::parse(last)?;
    let count = |k: &str| {
        v.get(k)
            .and_then(Json::as_f64)
            .map(|n| n as u64)
            .ok_or(format!("result line lacks {k}"))
    };
    child.attempted = count("attempted")?;
    child.failed = count("failed")?;
    let metrics = v
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line lacks metrics")?;
    for (name, m) in metrics {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or(format!("metric {name} lacks a value"))?;
        child.values.insert(name.clone(), value);
    }
    Ok(child)
}

fn spawn(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--emit-samples");
    // the benchmark measures the ambient kernel configuration
    for k in crate::host::KNOBS {
        cmd.env_remove(k);
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} (trace={trace}) exited with {}:\n{stdout}{}",
            workload.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    parse_child(&stdout)
}

/// One metric of one workload, merged over the rounds.
#[derive(Clone, Debug, PartialEq)]
struct Merged {
    value: f64,
    samples: usize,
}

/// One full set of runs: per workload, per metric.
type Set = BTreeMap<&'static str, BTreeMap<String, Merged>>;

/// Merge one workload's untraced rounds: timings pool their samples
/// before the median, set-up takes the median of the rounds, peak RSS
/// the maximum.
fn merge_rounds(rounds: &[Child]) -> BTreeMap<String, Merged> {
    let mut out = BTreeMap::new();
    let pooled = pool(rounds.iter().map(|c| &c.op_ms[..]));
    for m in &END_TO_END {
        let per_round: Vec<f64> = rounds
            .iter()
            .filter_map(|c| c.values.get(m.name).copied())
            .collect();
        let merged = match m.name {
            "op_ms_p50" if !pooled.is_empty() => Merged {
                value: median(&pooled),
                samples: pooled.len(),
            },
            "peak_rss_mib" => Merged {
                value: per_round.iter().copied().fold(0.0, f64::max),
                samples: per_round.len(),
            },
            _ => Merged {
                value: median(&per_round),
                samples: per_round.len(),
            },
        };
        out.insert(m.name.to_string(), merged);
    }
    out
}

/// One full set of runs, accumulated round by round.
#[derive(Default)]
struct SetRuns {
    untraced: BTreeMap<&'static str, Vec<Child>>,
    layer: Set,
    attempted: u64,
    failed: u64,
}

impl SetRuns {
    /// One round: every workload once, each as its own child process;
    /// the traced pass rides along in the set's first round.
    fn round(&mut self, label: &str, seed: u64, seconds: f64) -> Result<(), String> {
        let first = self.untraced.is_empty();
        for w in Workload::ALL {
            eprintln!("[{label}] {}", w.name());
            let c = spawn(w, seed, seconds, false)?;
            self.attempted += c.attempted;
            self.failed += c.failed;
            self.untraced.entry(w.name()).or_default().push(c);
            if first {
                let t = spawn(w, seed, seconds, true)?;
                self.attempted += t.attempted;
                self.failed += t.failed;
                let layer = t
                    .values
                    .into_iter()
                    .map(|(k, value)| (k, Merged { value, samples: 1 }))
                    .collect();
                self.layer.insert(w.name(), layer);
            }
        }
        Ok(())
    }

    fn merged(mut self) -> Set {
        for (w, rounds) in &self.untraced {
            self.layer
                .entry(w)
                .or_default()
                .extend(merge_rounds(rounds));
        }
        self.layer
    }
}

fn defs() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter())
}

fn print_set(set: &Set) {
    for (w, metrics) in set {
        println!("\n== {w} ==");
        println!("{}", crate::metrics::table_header());
        for m in defs() {
            if let Some(x) = metrics.get(m.name) {
                println!("{}", m.table_row(x.value, &x.samples.to_string()));
            }
        }
    }
}

/// Why `b` disagrees with `a` on metric `m`, if it does: an end-to-end
/// metric may differ by its own bound, an exact count not at all.
fn disagreement(m: &MetricDef, a: f64, b: f64) -> Option<String> {
    if m.exact {
        return (a != b).then(|| format!("exact count differs: {a} vs {b}"));
    }
    let bound = m.bound?;
    let rel = (b - a).abs() / a.abs();
    (rel.is_nan() || rel > bound)
        .then(|| format!("differs by {:.1}% > {:.0}%", rel * 100.0, bound * 100.0))
}

fn compare(a: &Set, b: &Set) -> usize {
    let mut bad = 0;
    println!("\n== selfcheck: A/A, two full sets of runs of the same code ==");
    println!(
        "{:<18} {:<36} {:>16} {:>16}  verdict",
        "workload", "metric", "A", "B"
    );
    for (w, ma) in a {
        for m in defs().filter(|m| m.exact || m.bound.is_some()) {
            let (Some(x), Some(y)) = (ma.get(m.name), b.get(w).and_then(|mb| mb.get(m.name)))
            else {
                continue;
            };
            let verdict = match disagreement(m, x.value, y.value) {
                Some(why) => {
                    bad += 1;
                    format!("FAIL {why}")
                }
                None => "ok".to_string(),
            };
            println!(
                "{:<18} {:<36} {:>16.6} {:>16.6}  {verdict}",
                w, m.name, x.value, y.value
            );
        }
    }
    bad
}

pub fn run_all(
    seed: u64,
    seconds: f64,
    rounds: usize,
    selfcheck: bool,
) -> Result<ExitCode, String> {
    println!(
        "cycle_budget: {} workloads x {rounds} rounds x {seconds} s, seed {seed}; claim: none",
        Workload::ALL.len()
    );
    println!("{}", crate::host::Host::detect().line());
    // A/A: the two sets' rounds alternate (A B, B A, ...), so a slow
    // stretch of the host taxes both sets alike.
    let (mut a, mut b) = (SetRuns::default(), SetRuns::default());
    for round in 0..rounds {
        eprintln!("round {}/{rounds}", round + 1);
        if !selfcheck {
            a.round("A", seed, seconds)?;
        } else if round % 2 == 0 {
            a.round("A", seed, seconds)?;
            b.round("B", seed, seconds)?;
        } else {
            b.round("B", seed, seconds)?;
            a.round("A", seed, seconds)?;
        }
    }
    let (attempted, failed) = (a.attempted + b.attempted, a.failed + b.failed);
    let a = a.merged();
    print_set(&a);
    let mut bad = 0;
    if selfcheck {
        bad = compare(&a, &b.merged());
        println!("selfcheck: {bad} disagreement(s)");
    }
    println!("\nops: attempted={attempted} failed={failed}");
    Ok(if failed == 0 && bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run every workload `runs` times, each with another seed, and print
/// for each end-to-end metric the distance between the first and third
/// quartile of its values as a share of their median: the steadiness
/// the driver holds the benchmark to (each spread within the metric's
/// bound; aim for a third of it).
pub fn spread(seed: u64, seconds: f64, runs: usize) -> Result<ExitCode, String> {
    let mut wide = 0;
    println!(
        "{:<18} {:<14} {:>14} {:>9} {:>7}  values",
        "workload", "metric", "median", "iqr/med", "bound"
    );
    for w in Workload::ALL {
        let mut children = Vec::with_capacity(runs);
        for i in 0..runs {
            eprintln!("[spread] {} run {}/{runs}", w.name(), i + 1);
            children.push(spawn(w, seed + i as u64, seconds, false)?);
        }
        for m in &END_TO_END {
            let values: Vec<f64> = children.iter().map(|c| c.values[m.name]).collect();
            let spread = iqr_over_median(&values).unwrap_or(f64::NAN);
            let bound = m.bound.expect("end-to-end metrics are gated");
            // set-up time is held to its bound between two sets of runs,
            // not within one
            if m.name != "setup_s" && (spread.is_nan() || spread > bound) {
                wide += 1;
            }
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{:<18} {:<14} {:>14.6} {:>9.4} {:>7}  {}",
                w.name(),
                m.name,
                median(&values),
                spread,
                bound,
                shown.join(" ")
            );
        }
    }
    println!("spread: {wide} metric(s) wider than their bound");
    Ok(if wide == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The registry as JSON: what `BENCHMARK.json`'s schema has no room for.
pub fn describe() {
    use crate::json::quote;
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name()),
                quote(w.why())
            )
        })
        .collect();
    let metric = |m: &MetricDef| {
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"exact\": {}, \"what\": {}, \"moves\": {}}}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str()),
            m.bound.map_or("null".into(), |b| b.to_string()),
            m.exact,
            quote(m.what),
            quote(m.moves)
        )
    };
    let list = |ms: &[MetricDef]| ms.iter().map(metric).collect::<Vec<_>>().join(",\n");
    println!(
        "{{\n  \"claim\": null,\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        workloads.join(",\n"),
        list(&END_TO_END),
        list(&PER_LAYER)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(op_ms: &[f64], setup: f64, rss: f64) -> Child {
        Child {
            values: [
                ("op_ms_p50".to_string(), median(op_ms)),
                ("setup_s".to_string(), setup),
                ("peak_rss_mib".to_string(), rss),
            ]
            .into(),
            op_ms: op_ms.to_vec(),
            attempted: 1,
            failed: 0,
        }
    }

    #[test]
    fn rounds_pool_samples_before_the_median() {
        // A burst hits round 2: its own median is 30, but it holds only
        // a quarter of the pooled samples.
        let rounds = [
            child(&[10.0, 10.0, 10.0], 1.0, 100.0),
            child(&[30.0, 30.0, 31.0], 3.0, 120.0),
            child(&[10.0, 10.0, 12.0], 1.2, 101.0),
            child(&[10.0, 10.0, 10.0], 1.1, 100.0),
        ];
        let m = merge_rounds(&rounds);
        assert_eq!(
            m["op_ms_p50"],
            Merged {
                value: 10.0,
                samples: 12
            }
        );
        assert_eq!(
            m["setup_s"],
            Merged {
                value: 1.15,
                samples: 4
            }
        );
        assert_eq!(
            m["peak_rss_mib"],
            Merged {
                value: 120.0,
                samples: 4
            }
        );
    }

    #[test]
    fn child_output_parses_and_malformed_output_is_refused() {
        let out = "cycle_budget x\n#samples op_ms 1.5 2.5\n\
                   {\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": \
                   {\"op_ms_p50\": {\"value\": 2, \"unit\": \"ms\"}}}\n";
        let c = parse_child(out).unwrap();
        assert_eq!(c.op_ms, vec![1.5, 2.5]);
        assert_eq!((c.attempted, c.failed), (9, 0));
        assert_eq!(c.values["op_ms_p50"], 2.0);
        assert!(parse_child("").is_err());
        assert!(parse_child("not json\n").is_err());
        assert!(parse_child("{\"correct\": true}\n").is_err());
        assert!(parse_child("#samples op_ms x\n{}\n").is_err());
    }

    #[test]
    fn selfcheck_holds_gated_metrics_to_their_bound_and_counts_to_equality() {
        let op = crate::metrics::def("op_ms_p50").unwrap();
        let bound = op.bound.unwrap() * 100.0;
        assert_eq!(disagreement(op, 100.0, 100.0 + bound - 1.0), None);
        assert_eq!(disagreement(op, 100.0, 100.0 - bound + 1.0), None);
        assert!(disagreement(op, 100.0, 100.0 + bound + 1.0).is_some());
        assert!(
            disagreement(op, 0.0, 0.0).is_some(),
            "a gated metric is never 0"
        );
        let steps = crate::metrics::def("sim.steps").unwrap();
        assert_eq!(disagreement(steps, 4096.0, 4096.0), None);
        assert!(disagreement(steps, 4096.0, 4097.0).is_some());
        let ungated = crate::metrics::def("core.make_GBps").unwrap();
        assert_eq!(disagreement(ungated, 1.0, 2.0), None);
    }

    /// `BENCHMARK.json` and the registry name the same workloads and
    /// metrics, with the same units, directions and bounds — both ways.
    #[test]
    fn benchmark_json_matches_the_registry_in_both_directions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let listed: Vec<(&str, &str)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").unwrap().as_str().unwrap(),
                    w.get("why").unwrap().as_str().unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
        assert_eq!(listed, ours);

        for (key, registry) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            let names: Vec<&str> = listed
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap())
                .collect();
            let ours: Vec<&str> = registry.iter().map(|m| m.name).collect();
            assert_eq!(names, ours, "{key}: names differ");
            for (j, m) in listed.iter().zip(registry) {
                assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    j.get("better").unwrap().as_str(),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
                let n_keys = j.as_obj().unwrap().len();
                assert_eq!(n_keys, if m.bound.is_some() { 4 } else { 3 }, "{}", m.name);
            }
        }
    }
}
