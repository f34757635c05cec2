//! Self-tests of the benchmark itself: input determinism, and a tiny run
//! of every workload through the correctness gate.

use crate::inputs::{generate, Shape, Workload};
use crate::run::{run, Options};
use fbd_ingest::wire::decode_batch;

fn fingerprint(workload: Workload, seed: u64) -> (Vec<Vec<u8>>, String) {
    let inputs = generate(workload, Shape::tiny(workload), seed);
    let batches = inputs
        .history
        .iter()
        .chain(inputs.rounds.iter().flatten())
        .map(|b| b.to_vec())
        .collect();
    let log = format!("{:?}", inputs.changelog.as_ref().map(|l| l.all()));
    (batches, log)
}

#[test]
fn same_seed_gives_identical_inputs_and_another_seed_does_not() {
    for workload in Workload::ALL {
        let (batches, log) = fingerprint(workload, 7);
        let (again, log_again) = fingerprint(workload, 7);
        assert_eq!(batches, again, "{}: wire batches differ", workload.name());
        assert_eq!(log, log_again, "{}: change logs differ", workload.name());
        let (other, other_log) = fingerprint(workload, 8);
        assert_ne!(batches, other, "{}: seed ignored", workload.name());
        if workload == Workload::BoundaryAdvance {
            assert_ne!(log, other_log, "change log ignores the seed");
        }
    }
}

#[test]
fn live_rounds_carry_every_series() {
    let shape = Shape::tiny(Workload::SteadyHold);
    let inputs = generate(Workload::SteadyHold, shape, 3);
    assert_eq!(inputs.rounds.len(), shape.live_rounds());
    assert!(inputs
        .rounds
        .iter()
        .all(|r| r.len() == shape.batches_per_round * shape.services));
    // Faults shed or add a few points; the bulk is one sample per series
    // per round step.
    let expected = shape.live_rounds() * shape.samples_per_round * shape.series();
    let got: usize = inputs
        .rounds
        .iter()
        .flatten()
        .map(|b| decode_batch(b).map_or(0, |d| d.point_count()))
        .sum();
    assert!(
        got.abs_diff(expected) * 20 < expected,
        "{got} vs {expected}"
    );
}

#[test]
fn tiny_run_of_each_workload_passes_the_gate() {
    for workload in Workload::ALL {
        let inputs = generate(workload, Shape::tiny(workload), 5);
        let report = run(
            &inputs,
            &Options {
                seconds: 0.01,
                trace: true,
                seed: 5,
            },
        );
        assert!(report.correct, "{}: {:?}", workload.name(), report.problems);
        assert_eq!(report.attempted, inputs.shape.max_rounds);
        assert_eq!(report.failed, 0);
        let tracer = report.tracer.expect("traced run keeps its spans");
        assert!(tracer
            .spans
            .iter()
            .any(|s| s.name == "pipeline.scan" && s.parent.is_some()));
        assert!(tracer.spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Every workload times its ingest layer: `cold_restart`, which
        // ingests nothing in timed rounds, through its set-up backfill.
        let ns_per_point = report
            .metrics
            .iter()
            .find(|m| m.name == "ingest.ns_per_point")
            .and_then(|m| m.value);
        assert!(
            ns_per_point.is_some_and(|v| v > 0.0),
            "{}: ingest untimed",
            workload.name()
        );
    }
}

#[test]
fn every_metric_benchmark_json_names_is_measured() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to perfbench/");
    let names: Vec<&str> = spec
        .split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1))
        .collect();
    assert!(names.len() > 10);
    for workload in Workload::ALL {
        let inputs = generate(workload, Shape::tiny(workload), 1);
        let report = run(
            &inputs,
            &Options {
                seconds: 0.01,
                trace: true,
                seed: 1,
            },
        );
        for name in &names {
            // Workload names and the peak RSS (read by run.py) aside,
            // every name is a metric this binary reports with a value.
            if Workload::parse(name).is_some() || *name == "peak_rss_mb" {
                continue;
            }
            let metric = report.metrics.iter().find(|m| m.name == *name);
            assert!(
                metric.is_some_and(|m| m.value.is_some()),
                "{}: {name} missing",
                workload.name()
            );
        }
    }
}
