//! The untraced run: end-to-end metrics, as a user of the system sees them.
//!
//! Inputs are generated from the seed before any clock starts. The modes
//! then run in interleaved rounds, with set-up repeated between them,
//! until the measuring time is spent, so that drift on a shared host
//! reaches every mode alike. A first round shorter than an eighth of the
//! measuring time is a warmup and is not counted. Every reported time is
//! a median.

use std::time::Instant;

use fae_core::input_processor::Preprocessed;
use fae_core::pipeline::{self, StaticArtifacts};
use fae_core::{AnyModel, ResilienceOptions, Telemetry, TrainReport};
use fae_data::format::FaeFile;
use fae_data::{generate, Dataset, GenOptions, WorkloadSpec};
use fae_embed::HotColdPartition;
use fae_models::MasterEmbeddings;
use fae_serve::{
    calibrate_partitions, open_loop_requests, InferRequest, ServeConfig, ServeEngine, ServeLoad,
    ServeReport,
};
use fae_sysmodel::Phase;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::median;
use crate::workload::{
    calibrator_config, preprocess_config, train_config, SERVE_LOAD, TEST_FRACTION,
};
use crate::{peak_rss_mib, Checks, Metric, Outcome, Plan, Samples, Signatures};

/// Set-up repetitions after each mode's run. Spread over the run rather
/// than timed all at start-up, set-up sees the same host as the modes;
/// the training workloads' serving run follows each mode's run likewise.
const SETUP_REPS_PER_SLOT: usize = 3;
/// A first round shorter than this share of the measuring time is warmup.
const WARMUP_SHARE: f64 = 0.125;
/// An FAE timeline's per-phase seconds must sum to its simulated total
/// within this.
const PHASE_SUM_TOLERANCE: f64 = 1e-6;

/// The four ways a workload is driven. On the training workloads they are
/// training modes; on the serving workload they are the same choices made
/// for the serving engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    /// FAE at one worker.
    Fae,
    /// FAE at two workers.
    FaeW2,
    /// The baseline: no hot set.
    Baseline,
    /// FAE at one worker with an in-memory journal.
    FaeJournal,
}

impl Mode {
    /// The modes in the order a round runs them.
    const ALL: [Mode; 4] = [Mode::Fae, Mode::FaeW2, Mode::Baseline, Mode::FaeJournal];

    /// The end-to-end throughput metric the mode reports.
    fn metric(self) -> &'static str {
        match self {
            Mode::Fae => "fae_samples_per_s",
            Mode::FaeW2 => "fae_w2_samples_per_s",
            Mode::Baseline => "baseline_samples_per_s",
            Mode::FaeJournal => "fae_journal_samples_per_s",
        }
    }

    /// The signature the mode's outputs must match. Journalling must not
    /// change the outputs, so the journal mode answers to the plain one.
    pub(crate) fn signature_key(self) -> &'static str {
        match self {
            Mode::Fae | Mode::FaeJournal => "fae",
            Mode::FaeW2 => "fae_w2",
            Mode::Baseline => "baseline",
        }
    }

    fn workers(self) -> usize {
        if self == Mode::FaeW2 {
            2
        } else {
            1
        }
    }
}

/// Runs `f`, returning its result and wall seconds.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// A telemetry handle that keeps events and metrics in memory.
pub(crate) fn in_memory_journal() -> Telemetry {
    Telemetry::builder()
        .retain_events(true)
        .try_build()
        .expect("a telemetry handle without a journal file cannot fail to build")
}

/// The generated inputs: the training (or calibration) part and the
/// held-out part that evaluation and serving read.
pub(crate) fn inputs(plan: &Plan) -> (WorkloadSpec, Dataset, Dataset) {
    let spec = plan.workload.spec();
    let (fit, test) =
        generate(&spec, &GenOptions::sized(plan.seed, plan.size.inputs)).split(TEST_FRACTION);
    (spec, fit, test)
}

/// The static phase as a user pays it: calibrate, classify and pack, then
/// write the stream in the FAE format and read it back.
fn prepare_and_round_trip(
    spec: &WorkloadSpec,
    fit: &Dataset,
) -> (StaticArtifacts, Result<FaeFile, String>) {
    let art = pipeline::prepare(fit, calibrator_config(spec), &preprocess_config());
    let bytes = art.preprocessed.to_fae_file(&spec.name).encode();
    let decoded = FaeFile::decode(&bytes).map_err(|e| e.to_string());
    (art, decoded)
}

/// One set-up repetition, timed and checked against the set-up signature.
fn setup_once<T>(
    once: &mut impl FnMut() -> (T, Result<String, String>),
    checks: &mut Checks,
    sigs: &mut Signatures,
) -> (T, f64) {
    let ((value, sig), secs) = timed(once);
    let verdict = sig.and_then(|sig| sigs.check("setup", &sig));
    checks.record(1, verdict.is_err() as u64, || verdict.unwrap_err());
    (value, secs)
}

/// The open-loop schedule every serving run replays: Poisson arrivals at
/// [`SERVE_LOAD`] of the engine's estimated capacity, over `inputs`.
pub(crate) fn serve_schedule(
    engine: &ServeEngine,
    inputs: usize,
    plan: &Plan,
) -> Vec<InferRequest> {
    let cfg = engine.config();
    let capacity = cfg.workers as f64 * cfg.max_batch as f64 / engine.estimated_batch_seconds();
    open_loop_requests(plan.size.requests, SERVE_LOAD * capacity, inputs, plan.seed)
}

/// One serving run, checked: every request is answered or refused, none
/// is refused, scores are finite, and the outputs repeat. Returns the
/// report and completed requests per wall second.
pub(crate) fn serve_once(
    engine: &ServeEngine,
    ds: &Dataset,
    requests: &[InferRequest],
    key: &str,
    checks: &mut Checks,
    sigs: &mut Signatures,
) -> (ServeReport, f64) {
    let load = ServeLoad::Open(requests.to_vec());
    let (report, secs) = timed(|| engine.serve(ds, &load));
    let sent = requests.len() as u64;
    let sig = format!(
        "completed={} rejected={} mean_score={} p99_ms={}",
        report.completed, report.rejected, report.mean_score, report.p99_ms
    );
    let verdict = if report.completed + report.rejected != sent {
        Err(format!(
            "{key}: {} completed + {} rejected of {sent} sent",
            report.completed, report.rejected
        ))
    } else if !report.mean_score.is_finite() {
        Err(format!("{key}: mean score {}", report.mean_score))
    } else {
        sigs.check(key, &sig)
    };
    match verdict {
        Ok(()) => checks.record(sent, report.rejected, || {
            format!("{key}: {} requests refused", report.rejected)
        }),
        Err(e) => checks.record(sent, sent, || e),
    }
    let rate = report.completed as f64 / secs;
    (report, rate)
}

/// Checks one training run's outputs: the signature, and for FAE that the
/// timeline's phases sum to its simulated seconds.
pub(crate) fn check_train(
    report: &TrainReport,
    mode: Mode,
    checks: &mut Checks,
    sigs: &mut Signatures,
) {
    let key = mode.signature_key();
    let sig = format!(
        "digest={:08x} test_loss={} sim_s={}",
        report.model_digest, report.final_test.loss, report.simulated_seconds
    );
    let phase_sum: f64 = Phase::ALL.iter().map(|&p| report.timeline.get(p)).sum();
    let verdict = if mode != Mode::Baseline
        && (phase_sum - report.simulated_seconds).abs() > PHASE_SUM_TOLERANCE
    {
        Err(format!("{key}: phases sum to {phase_sum}s, simulated {}s", report.simulated_seconds))
    } else {
        sigs.check(key, &sig)
    };
    checks.record(1, verdict.is_err() as u64, || verdict.unwrap_err());
}

/// One training run in `mode`: its report, wall seconds, and the events
/// the journal mode's in-memory journal kept (0 for the other modes).
pub(crate) fn train_once(
    mode: Mode,
    plan: &Plan,
    spec: &WorkloadSpec,
    pre: &Preprocessed,
    fit: &Dataset,
    test: &Dataset,
) -> (TrainReport, f64, usize) {
    let cfg = train_config(plan.size, mode.workers());
    match mode {
        Mode::Baseline => {
            let (report, secs) = timed(|| fae_core::train_baseline(spec, fit, test, &cfg));
            (report, secs, 0)
        }
        Mode::FaeJournal => {
            let opts = ResilienceOptions { telemetry: in_memory_journal(), ..Default::default() };
            let (report, secs) =
                timed(|| fae_core::train_fae_resilient(spec, pre, test, &cfg, &opts));
            (report, secs, opts.telemetry.events().len())
        }
        Mode::Fae | Mode::FaeW2 => {
            let (report, secs) = timed(|| fae_core::train_fae(spec, pre, test, &cfg));
            (report, secs, 0)
        }
    }
}

/// Runs rounds until the measuring time is spent; the first round is a
/// warmup when it is short. `round` runs one round and returns its
/// samples per slot, which are kept only when the round counts.
fn rounds(
    plan: &Plan,
    start: Instant,
    out: &mut Outcome,
    mut round: impl FnMut(&mut Outcome) -> Vec<Vec<f64>>,
) -> Vec<Vec<f64>> {
    let mut kept: Vec<Vec<f64>> = Vec::new();
    loop {
        let (samples, secs) = timed(|| round(out));
        if out.warmup == 0 && kept.is_empty() && secs < plan.seconds * WARMUP_SHARE {
            out.warmup = 1;
        } else {
            kept.resize(samples.len(), Vec::new());
            for (k, s) in kept.iter_mut().zip(samples) {
                k.extend(s);
            }
            out.repetitions += 1;
        }
        if start.elapsed().as_secs_f64() + secs > plan.seconds && out.repetitions > 0 {
            return kept;
        }
    }
}

/// Runs the plan untraced.
pub(crate) fn run(plan: &Plan) -> Outcome {
    if plan.workload.is_serve() {
        run_serve(plan)
    } else {
        run_train(plan)
    }
}

fn run_train(plan: &Plan) -> Outcome {
    let (spec, fit, test) = inputs(plan);
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut sigs = Signatures::new(&plan.pins);
    let mut setup = || {
        let (art, decoded) = prepare_and_round_trip(&spec, &fit);
        let sig = decoded.and_then(|file| {
            let pre = &art.preprocessed;
            if file.batches.len() == pre.total_batches() {
                Ok(format!(
                    "batches={} hot_fraction={}",
                    file.batches.len(),
                    pre.hot_input_fraction
                ))
            } else {
                Err(format!(
                    "decoded {} batches, packed {}",
                    file.batches.len(),
                    pre.total_batches()
                ))
            }
        });
        (art, sig)
    };
    let (art, _) = setup_once(&mut setup, &mut out.checks, &mut sigs);
    // Serving reads the held-out inputs through the calibrated hot set.
    let partitions = art.preprocessed.partitions.clone();
    let engine = ServeEngine::untrained(spec.clone(), partitions, ServeConfig::default());
    let requests = serve_schedule(&engine, test.len(), plan);
    let samples_per_run = (art.preprocessed.total_samples() * plan.size.epochs) as f64;

    let mut last: Vec<Option<TrainReport>> = vec![None; Mode::ALL.len()];
    let mut last_serve = None;
    let (serve_slot, setup_slot) = (Mode::ALL.len(), Mode::ALL.len() + 1);
    let kept = rounds(plan, start, &mut out, |out| {
        let mut slots = vec![Vec::new(); setup_slot + 1];
        for (i, &mode) in Mode::ALL.iter().enumerate() {
            let (report, secs, _) = train_once(mode, plan, &spec, &art.preprocessed, &fit, &test);
            check_train(&report, mode, &mut out.checks, &mut sigs);
            slots[i].push(samples_per_run / secs);
            last[i] = Some(report);
            for _ in 0..SETUP_REPS_PER_SLOT {
                slots[setup_slot].push(setup_once(&mut setup, &mut out.checks, &mut sigs).1);
            }
            let (report, rate) =
                serve_once(&engine, &test, &requests, "serve", &mut out.checks, &mut sigs);
            slots[serve_slot].push(rate);
            last_serve = Some(report);
        }
        slots
    });

    let fae = last[Mode::Fae as usize].as_ref().expect("at least one round ran");
    let base = last[Mode::Baseline as usize].as_ref().expect("at least one round ran");
    let serve = last_serve.expect("at least one round ran");
    finish(
        &mut out,
        &kept,
        base.simulated_seconds / fae.simulated_seconds,
        fae.final_test.loss / base.final_test.loss,
        &serve,
    );
    out.signatures = sigs.seen().clone();
    out
}

/// The untrained model and tables `ServeEngine::untrained` builds for
/// `cfg`: the same seed, drawn in the same order.
pub(crate) fn served_model(spec: &WorkloadSpec, cfg: &ServeConfig) -> (AnyModel, MasterEmbeddings) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let master = MasterEmbeddings::from_spec(spec, &mut rng);
    let model = AnyModel::from_spec(spec, &mut rng);
    (model, master)
}

fn run_serve(plan: &Plan) -> Outcome {
    let (spec, fit, test) = inputs(plan);
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut sigs = Signatures::new(&plan.pins);
    let w2 = ServeConfig::default();
    let w1 = ServeConfig { workers: 1, ..w2 };
    let mut setup = || {
        let partitions = calibrate_partitions(&fit, calibrator_config(&spec));
        let hot: usize = partitions.iter().map(HotColdPartition::hot_count).sum();
        (ServeEngine::untrained(spec.clone(), partitions, w2), Ok(format!("hot_rows={hot}")))
    };
    let (engine, _) = setup_once(&mut setup, &mut out.checks, &mut sigs);
    let partitions = engine.partitions().to_vec();
    let cold: Vec<HotColdPartition> =
        spec.tables.iter().map(|t| HotColdPartition::all_cold(t.rows)).collect();
    let fae_w1 = ServeEngine::untrained(spec.clone(), partitions.clone(), w1);
    let baseline = ServeEngine::untrained(spec.clone(), cold, w1);
    let mut journalled = ServeEngine::untrained(spec.clone(), partitions, w1);
    // Each worker count is loaded to the same share of its own capacity;
    // the baseline gets the one-worker FAE load, so that the simulated
    // times compare like with like.
    let load_w1 = serve_schedule(&fae_w1, test.len(), plan);
    let load_w2 = serve_schedule(&engine, test.len(), plan);

    let mut reports: Vec<Option<ServeReport>> = vec![None; Mode::ALL.len()];
    let setup_slot = Mode::ALL.len() + 1;
    let kept = rounds(plan, start, &mut out, |out| {
        let mut slots = vec![Vec::new(); setup_slot + 1];
        for (i, &mode) in Mode::ALL.iter().enumerate() {
            let (engine, requests) = match mode {
                Mode::Fae => (&fae_w1, &load_w1),
                Mode::FaeW2 => (&engine, &load_w2),
                Mode::Baseline => (&baseline, &load_w1),
                Mode::FaeJournal => {
                    journalled.set_telemetry(in_memory_journal());
                    (&journalled, &load_w1)
                }
            };
            let key = mode.signature_key();
            let (report, rate) =
                serve_once(engine, &test, requests, key, &mut out.checks, &mut sigs);
            slots[i].push(rate);
            reports[i] = Some(report);
            for _ in 0..SETUP_REPS_PER_SLOT {
                slots[setup_slot].push(setup_once(&mut setup, &mut out.checks, &mut sigs).1);
            }
        }
        // The serving workload's own serving metrics are the default
        // (two-worker) engine's.
        slots[Mode::ALL.len()] = slots[Mode::FaeW2 as usize].clone();
        slots
    });

    let report = |m: Mode| reports[m as usize].as_ref().expect("at least one round ran");
    let speedup = report(Mode::Baseline).timeline.total() / report(Mode::Fae).timeline.total();
    // Placement must not change what is served: both engines serve one
    // frozen model, so the ratio of their mean scores is 1.
    let quality = report(Mode::Fae).mean_score / report(Mode::Baseline).mean_score;
    let serve = report(Mode::FaeW2).clone();
    finish(&mut out, &kept, speedup, quality, &serve);
    out.signatures = sigs.seen().clone();
    out
}

/// Turns the kept samples (one slot per mode, then serving, then set-up)
/// and the run's outputs into the end-to-end metrics.
fn finish(
    out: &mut Outcome,
    kept: &[Vec<f64>],
    sim_speedup: f64,
    quality_ratio: f64,
    serve: &ServeReport,
) {
    let mut slot = |i: usize, name: &'static str, unit: &'static str| {
        out.samples.push(Samples { name: name.into(), unit, values: kept[i].clone() });
        out.metrics.push(Metric { name, unit, value: median(&kept[i]) });
    };
    for (i, mode) in Mode::ALL.iter().enumerate() {
        slot(i, mode.metric(), "1/s");
    }
    slot(Mode::ALL.len(), "serve_requests_per_s", "1/s");
    slot(Mode::ALL.len() + 1, "setup_s", "s");
    out.metrics.extend([
        Metric { name: "fae_sim_speedup", unit: "x", value: sim_speedup },
        Metric { name: "fae_test_loss_ratio", unit: "x", value: quality_ratio },
        Metric { name: "peak_rss_mib", unit: "MiB", value: peak_rss_mib() },
        Metric { name: "serve_p99_ms", unit: "ms", value: serve.p99_ms },
    ]);
}
