//! Monitoring-loop benchmark for the FBDetect reproduction.
//!
//! Runs the production loop — wire batches into `fbd-ingest`, landing in
//! the `fbd-tsdb` store, `Pipeline::scan` over them — on one named
//! workload, checks the outputs, and prints every metric by name and unit.
//! The last line of standard output is one JSON object; `run.py` builds
//! this binary, adds the process's peak RSS and selects the metrics
//! `BENCHMARK.json` names.
//!
//! Usage: `fbd-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--trace-file <path>] [--setup-only]`. See `WORKLOADS.md`.

mod inputs;
mod run;
mod stats;
mod trace;

#[cfg(test)]
mod selftest;

use inputs::{Shape, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<String>,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_file = None;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--trace-file" => trace_file = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_file,
        setup_only,
    })
}

fn json_number(v: f64) -> String {
    // Rust's shortest round-trip formatting keeps every digit measured.
    format!("{v}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let shape = Shape::full(args.workload);
    let generated = std::time::Instant::now();
    let inputs = inputs::generate(args.workload, shape, args.seed);
    eprintln!(
        "perfbench: {} seed {}: {} series, {} backfill batches, {} live rounds, inputs in {:.2} s",
        args.workload.name(),
        args.seed,
        inputs.ids.len(),
        inputs.history.len(),
        inputs.rounds.len(),
        generated.elapsed().as_secs_f64()
    );
    if args.setup_only {
        let secs = run::setup_only(&inputs);
        println!("{{\"setup_s\":{}}}", json_number(secs));
        return ExitCode::SUCCESS;
    }
    let report = run::run(
        &inputs,
        &run::Options {
            seconds: args.seconds,
            trace: args.trace,
            seed: args.seed,
        },
    );
    if let (Some(tracer), Some(path)) = (&report.tracer, &args.trace_file) {
        if let Err(e) = std::fs::write(path, tracer.to_json_lines()) {
            eprintln!("perfbench: writing {path}: {e}");
        }
    }
    for problem in &report.problems {
        eprintln!("perfbench: CHECK FAILED: {problem}");
    }

    println!(
        "workload {}  seed {}  nproc {}  trace {}",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(1, |c| c.get()),
        u8::from(args.trace)
    );
    for m in &report.metrics {
        match m.value {
            Some(v) => println!("  {:<40} {:>16.4} {}", m.name, v, m.unit),
            None => println!("  {:<40} {:>16} {}", m.name, "n/a", m.unit),
        }
    }
    let mut metrics = String::new();
    for m in &report.metrics {
        let Some(v) = m.value.filter(|v| v.is_finite()) else {
            continue;
        };
        if !metrics.is_empty() {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_number(v),
            m.unit
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
