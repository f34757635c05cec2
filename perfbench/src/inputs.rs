//! Deterministic workload inputs: wire batches, change log and ground truth.
//!
//! Everything the program under test sees is produced here from the
//! workload's shape and the seed, before any timing starts: the backfill
//! history and every live round as encoded wire batches
//! ([`fbd_fleet::emit::WireEmitter`]), and for `boundary_advance` a change
//! log ([`fbd_changelog::ChangeTrafficGenerator`]). The same seed yields
//! byte-identical inputs.

use bytes::Bytes;
use fbd_changelog::{ChangeLog, ChangeTrafficConfig, ChangeTrafficGenerator};
use fbd_fleet::emit::{EmitSeries, WireEmitter};
use fbd_fleet::fault::{DataFault, DataFaultKind};
use fbd_fleet::scenarios::{labelled_suite, SeriesLabel, SuiteConfig};
use fbd_ingest::wire::decode_batch;
use fbd_tsdb::{MetricKind, SeriesId, Timestamp, WindowConfig};
use fbdetect_core::{DetectorConfig, Threshold};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seconds between two samples of one series.
pub const CADENCE: u64 = 60;

/// Detection threshold of every workload: a 1% absolute mean shift on the
/// suite's base level of 1.0.
pub const THRESHOLD: f64 = 0.01;

/// Fewest timed rounds in a run.
pub const MIN_ROUNDS: usize = 100;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Production steady state: most rounds hold the watermark.
    SteadyHold,
    /// Every round crosses a re-run boundary; regressions are injected.
    BoundaryAdvance,
    /// A fresh pipeline per round over a preloaded store.
    ColdRestart,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::SteadyHold,
        Workload::BoundaryAdvance,
        Workload::ColdRestart,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyHold => "steady_hold",
            Workload::BoundaryAdvance => "boundary_advance",
            Workload::ColdRestart => "cold_restart",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of one workload instance.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Services in the store; `cold_restart` scans one service per round,
    /// the other workloads have one service and scan all of it.
    pub services: usize,
    /// Series per service, in the suite mix (70% clean, 25% transient,
    /// 4% seasonal, 1% step regression).
    pub series_per_service: usize,
    /// Backfilled history per series, in samples.
    pub history: usize,
    /// Sample at which the suite's step regressions and transients start.
    /// Live workloads place them early, so every transient has ended
    /// before the timed rounds' analysis windows and the timed rounds do
    /// uniform work; `cold_restart` places them inside the analysis
    /// window, as a first scan after a regression finds them.
    pub event_at: usize,
    /// Fresh samples per series delivered in each live round (0: no live
    /// stream).
    pub samples_per_round: usize,
    /// Rounds per re-run interval: the watermark moves once every this
    /// many rounds.
    pub rounds_per_rerun: usize,
    /// Extended window in samples (the window that ends at the watermark).
    pub extended: usize,
    /// Untimed warm-up rounds run as part of set-up.
    pub warmup_rounds: usize,
    /// Nominal timed rounds per second on a 2-core machine: `--seconds`
    /// times this is the timed round count, so every run of a workload
    /// does the same work whatever the program's speed.
    pub rounds_per_second: f64,
    /// Timed rounds generated: the most a run can time.
    pub max_rounds: usize,
    /// Wire batches per round and service (each carries a contiguous
    /// slice of the service's series).
    pub batches_per_round: usize,
    /// Per fault kind (NaN burst, duplicates, late window): faulted series
    /// per thousand.
    pub faults_per_mille: usize,
    /// Step regressions injected into the live stream.
    pub injections: usize,
    /// Timed rounds between two injections.
    pub injection_every: usize,
}

impl Shape {
    /// The benchmark's sizes.
    pub fn full(workload: Workload) -> Shape {
        match workload {
            Workload::SteadyHold => Shape {
                services: 1,
                series_per_service: 2_000,
                history: 900,
                event_at: 200,
                samples_per_round: 3,
                rounds_per_rerun: 8,
                extended: 100,
                warmup_rounds: 20,
                rounds_per_second: 40.0,
                max_rounds: 500,
                batches_per_round: 8,
                faults_per_mille: 10,
                injections: 0,
                injection_every: 0,
            },
            Workload::BoundaryAdvance => Shape {
                services: 1,
                series_per_service: 1_000,
                history: 900,
                event_at: 200,
                samples_per_round: 2,
                rounds_per_rerun: 1,
                extended: 30,
                warmup_rounds: 4,
                rounds_per_second: 30.0,
                max_rounds: 300,
                batches_per_round: 4,
                faults_per_mille: 0,
                injections: 12,
                injection_every: 5,
            },
            Workload::ColdRestart => Shape {
                services: 16,
                series_per_service: 500,
                history: 900,
                event_at: 675,
                samples_per_round: 0,
                rounds_per_rerun: 1,
                extended: 100,
                warmup_rounds: 2,
                // Twice its real rate: host speed drifts in ~1 s phases,
                // and this workload's rounds are the most sensitive, so it
                // times about 16 s of rounds at `--seconds 8`.
                rounds_per_second: 38.0,
                max_rounds: 1_000,
                batches_per_round: 1,
                faults_per_mille: 0,
                injections: 0,
                injection_every: 0,
            },
        }
    }

    /// Small sizes for the self-tests: the same code paths in well under a
    /// second.
    #[cfg(test)]
    pub fn tiny(workload: Workload) -> Shape {
        let full = Shape::full(workload);
        Shape {
            services: full.services.min(2),
            series_per_service: 100,
            history: 300,
            event_at: full.event_at / 3,
            extended: full.extended.min(30),
            warmup_rounds: full.warmup_rounds.min(4),
            max_rounds: 12,
            batches_per_round: full.batches_per_round.min(2),
            faults_per_mille: if full.faults_per_mille > 0 { 30 } else { 0 },
            injections: full.injections.min(2),
            injection_every: full.injection_every.min(2),
            ..full
        }
    }

    /// Total series in the store.
    pub fn series(&self) -> usize {
        self.services * self.series_per_service
    }

    /// Live rounds generated: warm-up plus timed.
    pub fn live_rounds(&self) -> usize {
        if self.samples_per_round == 0 {
            0
        } else {
            self.warmup_rounds + self.max_rounds
        }
    }

    /// Timed rounds of a run given `seconds`: at least [`MIN_ROUNDS`] (so
    /// ten samples lie beyond p90), at most `max_rounds`.
    pub fn timed_rounds(&self, seconds: f64) -> usize {
        ((seconds * self.rounds_per_second).ceil() as usize)
            .max(MIN_ROUNDS)
            .min(self.max_rounds)
    }

    /// Seconds one live round advances the data.
    pub fn round_span(&self) -> u64 {
        self.samples_per_round.max(1) as u64 * CADENCE
    }

    /// Detection windows: 2/3 of the history historic, the extended window
    /// as configured, the analysis window filling the rest; the re-run
    /// interval spans `rounds_per_rerun` live rounds.
    pub fn windows(&self) -> WindowConfig {
        let historic = self.history * 2 / 3;
        WindowConfig {
            historic: historic as u64 * CADENCE,
            analysis: (self.history - historic - self.extended) as u64 * CADENCE,
            extended: self.extended as u64 * CADENCE,
            rerun_interval: self.rounds_per_rerun as u64 * self.round_span(),
        }
    }

    /// The detector configuration every pipeline of this workload runs.
    pub fn detector_config(&self) -> DetectorConfig {
        DetectorConfig::new("perfbench", self.windows(), Threshold::Absolute(THRESHOLD))
    }

    /// End of the backfilled history: the first live timestamp.
    pub fn history_end(&self) -> Timestamp {
        self.history as u64 * CADENCE
    }

    /// The scan watermark after `live_rounds_done` live rounds (warm-up
    /// rounds included): the next sample time, quantized down to the re-run
    /// interval.
    pub fn watermark(&self, live_rounds_done: usize) -> Timestamp {
        let frontier = self.history_end() + live_rounds_done as u64 * self.round_span();
        let rerun = self.windows().rerun_interval;
        frontier / rerun * rerun
    }
}

/// One step regression planted in the live stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Injection {
    /// Index of the regressed series.
    pub series: usize,
    /// Timed round whose batches carry the first regressed sample.
    pub round: usize,
    /// Timestamp of the first regressed sample.
    pub at: Timestamp,
    /// Mean shift added from `at` on.
    pub delta: f64,
}

/// Every input of one run, generated before timing starts.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// Its sizes.
    pub shape: Shape,
    /// Series ids, service by service.
    pub ids: Vec<SeriesId>,
    /// Ground truth: whether the series carries a real step regression
    /// (from the suite's history or injected live).
    pub truth: Vec<bool>,
    /// Backfill batches, in delivery order.
    pub history: Vec<Bytes>,
    /// Live batches per round: warm-up rounds first, then timed rounds.
    pub rounds: Vec<Vec<Bytes>>,
    /// Planted regressions (`boundary_advance`).
    pub injections: Vec<Injection>,
    /// Change log handed to every scan (`boundary_advance`).
    pub changelog: Option<ChangeLog>,
}

impl Inputs {
    /// The series of service `service`.
    pub fn service_ids(&self, service: usize) -> &[SeriesId] {
        let n = self.shape.series_per_service;
        &self.ids[service * n..(service + 1) * n]
    }
}

/// Derives an independent sub-seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fair, seed-determined coin per round (which timed rounds a traced
/// run traces).
pub fn coin(seed: u64, round: usize) -> bool {
    mix(seed, 0x7EACE ^ round as u64) & 1 == 1
}

/// Generates the inputs of `workload` at `shape` from `seed`.
///
/// One service is generated, emitted and dropped at a time, so the
/// generation's temporaries stay small next to the wire batches kept.
pub fn generate(workload: Workload, shape: Shape, seed: u64) -> Inputs {
    let live_samples = shape.live_rounds() * shape.samples_per_round;
    let len = shape.history + live_samples;
    let n = shape.series_per_service;
    let suite_config = SuiteConfig {
        clean: n - n / 100 - n / 4 - n / 25,
        regressions: n / 100,
        gradual: 0,
        transients: n / 4,
        seasonal: n / 25,
        len,
        change_fraction: shape.event_at as f64 / len as f64,
        relative_magnitude_range: (0.01, 0.2),
        base: 1.0,
        noise_std: 0.002,
    };
    let ids: Vec<SeriesId> = (0..shape.series())
        .map(|i| {
            SeriesId::new(
                format!("svc{}", i / n),
                MetricKind::GCpu,
                format!("subroutine_{:05}", i % n),
            )
        })
        .collect();
    // `labelled_suite` emits its labels in a fixed order: clean series
    // first, then step regressions.
    let label_of = |i: usize| match i % n {
        k if k < suite_config.clean => SeriesLabel::Clean,
        k if k < suite_config.clean + suite_config.regressions => SeriesLabel::TrueRegression,
        _ => SeriesLabel::Transient,
    };
    let mut truth: Vec<bool> = (0..ids.len())
        .map(|i| label_of(i) == SeriesLabel::TrueRegression)
        .collect();
    let mut rng = StdRng::seed_from_u64(mix(seed, 1));

    // Step regressions into clean series, one every `injection_every`
    // timed rounds, magnitudes log-spaced over the part of Table 4's range
    // the threshold admits (2%..15% of the base level).
    let mut changelog = None;
    let mut injections = Vec::new();
    if shape.injections > 0 {
        let live_end = shape.history_end() + live_samples as u64 * CADENCE;
        let mut traffic = ChangeTrafficGenerator::new(
            ChangeTrafficConfig {
                service: ids[0].service.clone(),
                subroutine_pool: ids.iter().map(|id| id.target.clone()).collect(),
                ..ChangeTrafficConfig::default()
            },
            mix(seed, 2),
        );
        let mut log = ChangeLog::new();
        traffic.generate_background(&mut log, 0, live_end);
        let mut clean: Vec<usize> = (0..ids.len())
            .filter(|&i| label_of(i) == SeriesLabel::Clean)
            .collect();
        for k in 0..shape.injections {
            let series = clean.swap_remove(rng.gen_range(0..clean.len()));
            let round = 1 + k * shape.injection_every;
            let first_sample = shape.history
                + (shape.warmup_rounds + round) * shape.samples_per_round
                + rng.gen_range(0..shape.samples_per_round);
            let t = if shape.injections == 1 {
                0.5
            } else {
                k as f64 / (shape.injections - 1) as f64
            };
            let delta = (0.02f64.ln() + t * (0.15f64.ln() - 0.02f64.ln())).exp();
            let at = first_sample as u64 * CADENCE;
            let target = ids[series].target.as_str();
            // The culprit change deploys one sample before the step.
            traffic.plant_culprit(&mut log, at - CADENCE, &[target], None);
            truth[series] = true;
            injections.push(Injection {
                series,
                round,
                at,
                delta,
            });
        }
        changelog = Some(log);
    }

    // Collector faults on the live stream: a fixed share of series per
    // kind, each fault starting inside the timed rounds.
    let mut faults: Vec<Option<DataFault>> = vec![None; ids.len()];
    if shape.faults_per_mille > 0 && live_samples > 0 {
        let per_kind = (ids.len() * shape.faults_per_mille).div_ceil(1000);
        let kinds = [
            (DataFaultKind::NaNBurst, 0.3, 20),
            (DataFaultKind::DuplicatedTimestamps, 0.2, 40),
            (DataFaultKind::LateWindow, 1.0, 20),
        ];
        let mut order: Vec<usize> = (0..ids.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let timed_start = shape.history + shape.warmup_rounds * shape.samples_per_round;
        let timed_samples = shape.max_rounds * shape.samples_per_round;
        for (k, &(kind, intensity, samples)) in kinds.iter().enumerate() {
            for &series in &order[k * per_kind..(k + 1) * per_kind] {
                let start =
                    timed_start + rng.gen_range(0..timed_samples.saturating_sub(samples).max(1));
                faults[series] = Some(DataFault {
                    kind,
                    start: start as u64 * CADENCE,
                    duration: samples as u64 * CADENCE,
                    intensity,
                });
            }
        }
    }

    // Wire emission, service by service: series are split into contiguous
    // slices, one batch per slice per round, so the ingest stages overlap.
    // Backfill batches span the validator's default late slack (900 s), so
    // no history point arrives late.
    let per_slice = n.div_ceil(shape.batches_per_round.max(1));
    let history_emitter = WireEmitter::new("perfbench", 15 * CADENCE);
    let live_emitter = WireEmitter::new("perfbench", shape.round_span());
    let first_bucket = shape.history_end() / shape.round_span();
    let mut history: Vec<Vec<Bytes>> = vec![Vec::new(); shape.history.div_ceil(15)];
    let mut rounds: Vec<Vec<Bytes>> = vec![Vec::new(); shape.live_rounds()];
    let mut emit_rng = StdRng::seed_from_u64(mix(seed, 3));
    for service in 0..shape.services {
        let base = service * n;
        let mut suite = labelled_suite(&suite_config, mix(seed, 100 + service as u64))
            .expect("suite configuration is valid");
        for injection in injections.iter().filter(|j| j.series / n == service) {
            let first = (injection.at / CADENCE) as usize;
            for v in &mut suite[injection.series - base].values[first..] {
                *v += injection.delta;
            }
        }
        let samples = |i: usize, range: std::ops::Range<usize>| -> Vec<(u64, f64)> {
            range
                .map(|j| (j as u64 * CADENCE, suite[i - base].values[j]))
                .collect()
        };
        for lo in (base..base + n).step_by(per_slice) {
            let hi = (lo + per_slice).min(base + n);
            let backfill: Vec<EmitSeries> = (lo..hi)
                .map(|i| EmitSeries::clean(ids[i].clone(), samples(i, 0..shape.history)))
                .collect();
            let batches = history_emitter
                .rounds(&mut emit_rng, &backfill)
                .expect("history emits");
            for (slot, batch) in history.iter_mut().zip(batches) {
                slot.push(batch);
            }
            if live_samples == 0 {
                continue;
            }
            let live: Vec<EmitSeries> = (lo..hi)
                .map(|i| {
                    let stream = samples(i, shape.history..len);
                    match faults[i] {
                        Some(fault) => EmitSeries::faulted(ids[i].clone(), stream, fault),
                        None => EmitSeries::clean(ids[i].clone(), stream),
                    }
                })
                .collect();
            for batch in live_emitter
                .rounds(&mut emit_rng, &live)
                .expect("live emits")
            {
                let collected_at = decode_batch(&batch)
                    .expect("emitted batch decodes")
                    .collected_at;
                let round = (collected_at / shape.round_span() - 1 - first_bucket) as usize;
                // Late deliveries past the last round never arrive.
                if let Some(slot) = rounds.get_mut(round) {
                    slot.push(batch);
                }
            }
        }
    }

    Inputs {
        workload,
        shape,
        ids,
        truth,
        // Delivery order: backfill round by round, every slice in each.
        history: history.into_iter().flatten().collect(),
        rounds,
        injections,
        changelog,
    }
}
