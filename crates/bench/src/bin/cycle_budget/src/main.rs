//! `cycle_budget` — the repo's benchmark of record: one checkpoint
//! cycle, end to end and layer by layer. See `README.md` beside this
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! cycle_budget --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <prefix>]
//! cycle_budget [--seed <n>] [--seconds <s>] [--rounds <r>] [--selfcheck]
//! cycle_budget --spread <runs> [--seed <n>] [--seconds <s>]
//! cycle_budget --describe
//! ```
//!
//! The first form is one run of one workload and ends with one JSON
//! result line (the contract `BENCHMARK.json` is run under); the second
//! runs every workload in interleaved rounds of child processes and
//! prints pooled medians; the third reports run-to-run spread over
//! seeds; the fourth prints the metric registry.

mod driver;
mod host;
mod json;
mod metrics;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use run::{RunArgs, RunOutput};
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage:
  cycle_budget --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <prefix>] [--emit-samples]
  cycle_budget [--seed <n>] [--seconds <s>] [--rounds <r>] [--selfcheck]
  cycle_budget --spread <runs> [--seed <n>] [--seconds <s>]
  cycle_budget --describe
workloads: hpl_skt cycle_xor cycle_rs2 fail_recover_rs2 service_mix";

/// Everything the command line can say.
#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    trace_out: Option<String>,
    rounds: Option<usize>,
    spread: Option<usize>,
    emit_samples: bool,
    selfcheck: bool,
    describe: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                cli.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s}: must be in (0, 3600]"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: must be 0 or 1")),
                });
            }
            "--trace-out" => cli.trace_out = Some(value()?),
            "--rounds" => {
                let r: usize = value()?.parse().map_err(|e| format!("--rounds: {e}"))?;
                if !(1..=64).contains(&r) {
                    return Err(format!("--rounds {r}: must be in 1..=64"));
                }
                cli.rounds = Some(r);
            }
            "--spread" => {
                let r: usize = value()?.parse().map_err(|e| format!("--spread: {e}"))?;
                if !(2..=64).contains(&r) {
                    return Err(format!("--spread {r}: must be in 2..=64"));
                }
                cli.spread = Some(r);
            }
            "--emit-samples" => cli.emit_samples = true,
            "--selfcheck" => cli.selfcheck = true,
            "--describe" => cli.describe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// The result line of the driver's contract: exactly `correct`,
/// `attempted`, `failed` and `metrics`, every value with all its digits.
fn result_line(out: &RunOutput) -> String {
    let metrics: Vec<String> = out
        .values
        .iter()
        .map(|(name, v)| {
            let unit = metrics::def(name).map_or("", |m| m.unit);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::number(*v),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failed == 0,
        out.checks.attempted.max(1),
        out.checks.failed,
        metrics.join(", ")
    )
}

fn single_run(cli: &Cli, workload: &str) -> Result<ExitCode, String> {
    let workload = Workload::from_name(workload)
        .ok_or_else(|| format!("unknown workload {workload}\n{USAGE}"))?;
    let args = RunArgs {
        workload,
        seed: cli.seed.unwrap_or(1),
        seconds: cli.seconds.unwrap_or(driver::DEFAULT_SECONDS),
        trace: cli.trace.unwrap_or(false),
        trace_out: cli.trace_out.clone(),
    };
    let out = run::run(&args);
    println!(
        "cycle_budget {} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", out.host.line());
    println!("{}", metrics::table_header());
    for (name, v) in &out.values {
        let m = metrics::def(name).expect("every printed metric is registered");
        let samples = match *name {
            "op_ms_p50" => out.op_ms.len().to_string(),
            _ => "-".into(),
        };
        println!("{}", m.table_row(*v, &samples));
    }
    println!(
        "timed ops: {} (p50 {:.6} ms), {} of them used; checks: attempted={} failed={}",
        out.timed_ops,
        out.all_ops_p50,
        out.op_ms.len(),
        out.checks.attempted,
        out.checks.failed
    );
    for note in &out.checks.notes {
        println!("FAILED: {note}");
    }
    if cli.emit_samples {
        let samples: Vec<String> = out.op_ms.iter().map(|s| json::number(*s)).collect();
        println!("#samples op_ms {}", samples.join(" "));
    }
    println!("{}", result_line(&out));
    Ok(if out.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| {
        if cli.describe {
            driver::describe();
            Ok(ExitCode::SUCCESS)
        } else if let Some(w) = &cli.workload {
            single_run(&cli, w)
        } else if let Some(runs) = cli.spread {
            driver::spread(
                cli.seed.unwrap_or(1),
                cli.seconds.unwrap_or(driver::DEFAULT_SECONDS),
                runs,
            )
        } else {
            driver::run_all(
                cli.seed.unwrap_or(1),
                cli.seconds.unwrap_or(driver::DEFAULT_SECONDS),
                cli.rounds.unwrap_or(driver::DEFAULT_ROUNDS),
                cli.selfcheck,
            )
        }
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cycle_budget: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_argument_order_parses() {
        let c = cli(&[
            "--workload",
            "cycle_xor",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("cycle_xor"));
        assert_eq!(
            (c.seed, c.seconds, c.trace),
            (Some(7), Some(10.0), Some(true))
        );
    }

    #[test]
    fn bad_arguments_are_refused_where_they_enter() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--rounds", "0"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
