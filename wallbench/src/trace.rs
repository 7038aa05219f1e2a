//! The traced run: per-layer metrics from a replay of the workload.
//!
//! The replay calls each layer's public functions in the order the FAE
//! trainer does (cold blocks on the master tables, a refresh, hot blocks
//! on the hot bags, a write-back, an evaluation per round) and records a
//! span around every call. Spans are kept in memory and written out when
//! the run ends. A span's self time is its duration minus its children's.
//! Each `_ms` metric is the median self time per call.
//!
//! `trainer.step_ms` comes from untraced FAE runs made in the same
//! process. The replayed layer time per step is subtracted from it to
//! give `trainer.unattributed_ms`: the loop's own cost plus the tracing
//! overhead. The embedding lookups are probed on their own, outside the
//! step, because the forward pass already makes them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use fae_core::calibrator::{log_accesses, sample_inputs};
use fae_core::classifier::hot_bytes;
use fae_core::input_processor::{preprocess_inputs, Preprocessed};
use fae_core::trainer::make_test_batches;
use fae_core::{
    classify_tables, AnyModel, Calibrator, HotEmbeddings, ParallelEngine, Rate, ShuffleScheduler,
    TrainConfig,
};
use fae_data::format::FaeFile;
use fae_data::{BatchKind, Dataset, MiniBatch, WorkloadSpec};
use fae_embed::HotColdPartition;
use fae_models::{evaluate, predict, EmbeddingSource, MasterEmbeddings, RecModel};
use fae_nn::{bce_loss, bce_loss_backward, Activation, Layer, Mlp, Tensor};
use fae_serve::{InferRequest, ServeCache, ServeConfig, ServeEngine};
use fae_sysmodel::{Phase, Timeline};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::e2e::{self, in_memory_journal, serve_schedule, train_once, Mode};
use crate::stats::median;
use crate::workload::{calibrator_config, preprocess_config, train_config, MINIBATCH};
use crate::{Metric, Outcome, Plan, Samples, Signatures};

/// `ParallelEngine::step` calls per worker count and replay pass.
const EXEC_PROBE_STEPS: usize = 24;
/// Bottom-MLP forward+backward calls per replay pass.
const MLP_PROBE_CALLS: usize = 40;

/// Spans whose self time makes up the replayed training step: everything
/// the trainer does per step, per transition and per round.
pub const STEP_LAYERS: [&str; 8] = [
    "models.forward",
    "models.backward",
    "models.dense_sgd",
    "embed.apply_hot",
    "embed.apply_master",
    "replicator.refresh",
    "replicator.write_back",
    "models.eval",
];

/// Per-layer `_ms` metrics and the span each is the median self time of.
const TIMED: [(&str, &str); 22] = [
    ("calibrator.sample_ms", "calibrator.sample"),
    ("calibrator.log_ms", "calibrator.log"),
    ("calibrator.converge_ms", "calibrator.converge"),
    ("classifier.classify_ms", "classifier.classify"),
    ("input_processor.pack_ms", "input_processor.pack"),
    ("format.encode_ms", "format.encode"),
    ("format.decode_ms", "format.decode"),
    ("nn.bottom_mlp_ms", "nn.bottom_mlp"),
    ("models.forward_ms", "models.forward"),
    ("models.backward_ms", "models.backward"),
    ("models.dense_sgd_ms", "models.dense_sgd"),
    ("models.eval_ms", "models.eval"),
    ("embed.lookup_hot_ms", "embed.lookup_hot"),
    ("embed.lookup_master_ms", "embed.lookup_master"),
    ("embed.apply_hot_ms", "embed.apply_hot"),
    ("embed.apply_master_ms", "embed.apply_master"),
    ("exec.step_ms", "exec.step"),
    ("exec.step_w2_ms", "exec.step_w2"),
    ("replicator.refresh_ms", "replicator.refresh"),
    ("replicator.write_back_ms", "replicator.write_back"),
    ("serve.cache_access_ms", "serve.cache_access"),
    ("serve.predict_ms", "serve.predict"),
];

/// Per-layer counts and ratios, with their units.
const COUNTED: [(&str, &str); 14] = [
    ("calibrator.sampled_inputs", "count"),
    ("classifier.hot_rows", "count"),
    ("input_processor.hot_batches", "count"),
    ("input_processor.cold_batches", "count"),
    ("input_processor.hot_input_fraction", "ratio"),
    ("format.bytes", "bytes"),
    ("embed.rows_updated", "count"),
    ("replicator.sync_bytes", "bytes"),
    ("replicator.transitions", "count"),
    ("telemetry.journal_events", "count"),
    ("serve.batches", "count"),
    ("serve.mean_batch_size", "count"),
    ("serve.hit_rate", "ratio"),
    ("serve.rejected", "count"),
];

/// `sim.*` metrics: the simulated seconds of each timeline phase.
const SIM: [(&str, Phase); 8] = [
    ("sim.embed_forward_s", Phase::EmbedForward),
    ("sim.dense_forward_s", Phase::DenseForward),
    ("sim.backward_s", Phase::Backward),
    ("sim.optimizer_s", Phase::Optimizer),
    ("sim.transfer_s", Phase::Transfer),
    ("sim.all_reduce_s", Phase::AllReduce),
    ("sim.embed_sync_s", Phase::EmbedSync),
    ("sim.framework_s", Phase::Framework),
];

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer call, e.g. `models.forward`.
    pub name: &'static str,
    /// Start, seconds since the tracer was made.
    pub start_s: f64,
    /// End, seconds since the tracer was made.
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records nested spans in memory.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Opens a span inside the innermost open one.
    fn enter(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_s: now, end_s: now, parent });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }
}

/// Each span's duration minus the durations of its children, seconds.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_s - s.start_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_s - s.start_s;
        }
    }
    own
}

/// Self times in milliseconds, grouped by span name.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        by.entry(s.name).or_default().push(own * 1e3);
    }
    by
}

/// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
pub fn chrome_trace(spans: &[Span]) -> serde_json::Value {
    let events: Vec<serde_json::Value> = spans
        .iter()
        .map(|s| {
            serde_json::json!({
                "name": s.name,
                "ph": "X",
                "ts": s.start_s * 1e6,
                "dur": (s.end_s - s.start_s) * 1e6,
                "pid": 1,
                "tid": 1,
            })
        })
        .collect();
    serde_json::json!({ "traceEvents": events })
}

/// Counts and values the replay reads off the layers, by metric name.
type Counts = BTreeMap<&'static str, f64>;

/// Calls each embedding lookup `batch` makes, on its own.
fn lookups(emb: &dyn EmbeddingSource, batch: &MiniBatch) {
    for (t, csr) in batch.sparse.iter().enumerate() {
        black_box(emb.lookup(t, &csr.indices, &csr.offsets));
    }
}

/// Replays calibrate → classify, then for training pack → encode →
/// decode, recording the set-up counts.
fn replay_setup(
    tr: &mut Tracer,
    spec: &WorkloadSpec,
    fit: &Dataset,
    pack: bool,
    counts: &mut Counts,
) -> (Vec<HotColdPartition>, Option<Preprocessed>) {
    let setup = tr.enter("setup");
    let calibrator = Calibrator::new(calibrator_config(spec));
    let mut rng = StdRng::seed_from_u64(calibrator.config.seed);
    let rate = calibrator.config.sample_rate;
    let samples = tr.time("calibrator.sample", || sample_inputs(fit, rate, &mut rng));
    let counters = tr.time("calibrator.log", || log_accesses(fit, &samples));
    let calibration =
        tr.time("calibrator.converge", || calibrator.converge(fit, &counters, &mut rng));
    let partitions =
        tr.time("classifier.classify", || classify_tables(&fit.spec, &counters, &calibration));
    counts.insert("calibrator.sampled_inputs", samples.len() as f64);
    counts.insert("classifier.hot_rows", partitions.iter().map(|p| p.hot_count() as f64).sum());
    if !pack {
        tr.exit(setup);
        return (partitions, None);
    }
    let pre = tr.time("input_processor.pack", || {
        preprocess_inputs(fit, partitions.clone(), &preprocess_config())
    });
    let bytes = tr.time("format.encode", || pre.to_fae_file(&spec.name).encode());
    black_box(tr.time("format.decode", || FaeFile::decode(&bytes)).ok());
    tr.exit(setup);
    counts.insert("input_processor.hot_batches", pre.hot_batches.len() as f64);
    counts.insert("input_processor.cold_batches", pre.cold_batches.len() as f64);
    counts.insert("input_processor.hot_input_fraction", pre.hot_input_fraction);
    counts.insert("format.bytes", bytes.len() as f64);
    (partitions, Some(pre))
}

/// Span names of one embedding tier.
struct Tier {
    lookup: &'static str,
    apply: &'static str,
}

const HOT: Tier = Tier { lookup: "embed.lookup_hot", apply: "embed.apply_hot" };
const MASTER: Tier = Tier { lookup: "embed.lookup_master", apply: "embed.apply_master" };

/// One training step, decomposed as `ParallelEngine::step` at one worker
/// runs it, followed by the sparse apply on `emb`. Returns the rows the
/// apply updated and whether the loss was finite.
fn replay_step<E: EmbeddingSource>(
    tr: &mut Tracer,
    model: &mut AnyModel,
    emb: &mut E,
    mb: &MiniBatch,
    lr: f32,
    tier: &Tier,
) -> (u64, bool) {
    tr.time(tier.lookup, || lookups(&*emb, mb));
    let step = tr.enter("trainer.step");
    model.zero_grad();
    let pred = tr.time("models.forward", || model.forward(mb, &*emb));
    let target = Tensor::from_vec(mb.len(), 1, mb.labels.clone());
    let loss = bce_loss(&pred, &target);
    let grad = bce_loss_backward(&pred, &target);
    let grads = tr.time("models.backward", || model.backward(&grad));
    tr.time("models.dense_sgd", || model.sgd_step(lr));
    tr.time(tier.apply, || emb.apply_sparse_grads(&grads, lr));
    tr.exit(step);
    (grads.iter().map(|g| g.nnz_rows() as u64).sum(), loss.is_finite())
}

/// Replays one FAE training run over the prepared stream. Returns the
/// steps taken, the sparse rows updated and the steps whose loss was not
/// finite.
fn replay_training(
    tr: &mut Tracer,
    spec: &WorkloadSpec,
    pre: &Preprocessed,
    test: &Dataset,
    cfg: &TrainConfig,
) -> (usize, u64, u64) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = AnyModel::from_spec(spec, &mut rng);
    let mut master = MasterEmbeddings::from_spec(spec, &mut rng);
    let mut hot = HotEmbeddings::build(&master, pre.partitions.clone());
    let test_batches = make_test_batches(test, cfg.minibatch_size, cfg.eval_batches);
    let mut scheduler = ShuffleScheduler::new(Rate::new(cfg.initial_rate));
    let (n_hot, n_cold) = (pre.hot_batches.len(), pre.cold_batches.len());
    let (mut steps, mut rows, mut bad) = (0usize, 0u64, 0u64);
    for epoch in 0..cfg.epochs {
        let mut order_rng = StdRng::seed_from_u64(cfg.seed ^ epoch as u64);
        let mut hot_order: Vec<usize> = (0..n_hot).collect();
        let mut cold_order: Vec<usize> = (0..n_cold).collect();
        hot_order.shuffle(&mut order_rng);
        cold_order.shuffle(&mut order_rng);
        let (mut hp, mut cp) = (0, 0);
        while hp < n_hot || cp < n_cold {
            let rate = scheduler.rate();
            if cp < n_cold {
                let k = rate.block_len(n_cold).min(n_cold - cp);
                for &b in &cold_order[cp..cp + k] {
                    let mb = &pre.cold_batches[b];
                    let (r, finite) = replay_step(tr, &mut model, &mut master, mb, cfg.lr, &MASTER);
                    rows += r;
                    bad += !finite as u64;
                }
                cp += k;
                steps += k;
            }
            if hp < n_hot {
                let k = rate.block_len(n_hot).min(n_hot - hp);
                tr.time("replicator.refresh", || hot.refresh_from(&master));
                for &b in &hot_order[hp..hp + k] {
                    let mb = &pre.hot_batches[b];
                    let (r, finite) = replay_step(tr, &mut model, &mut hot, mb, cfg.lr, &HOT);
                    rows += r;
                    bad += !finite as u64;
                }
                tr.time("replicator.write_back", || hot.write_back(&mut master));
                hp += k;
                steps += k;
            }
            let e = tr.time("models.eval", || evaluate(&mut model, &master, &test_batches));
            scheduler.observe_test_loss(e.loss);
        }
    }
    // The trainer's closing evaluations: the test batches, then a sample
    // of training batches from each tier.
    tr.time("models.eval", || evaluate(&mut model, &master, &test_batches));
    let half = cfg.eval_batches / 2 + 1;
    let sample: Vec<MiniBatch> = pre
        .hot_batches
        .iter()
        .take(half)
        .chain(pre.cold_batches.iter().take(half))
        .cloned()
        .collect();
    tr.time("models.eval", || evaluate(&mut model, &master, &sample));
    (steps, rows, bad)
}

/// `ParallelEngine::step` on hot batches at one and at two workers.
fn probe_exec(tr: &mut Tracer, spec: &WorkloadSpec, pre: &Preprocessed, cfg: &TrainConfig) {
    let master = MasterEmbeddings::from_spec(spec, &mut StdRng::seed_from_u64(cfg.seed));
    let hot = HotEmbeddings::build(&master, pre.partitions.clone());
    for (workers, name) in [(1, "exec.step"), (2, "exec.step_w2")] {
        let model = AnyModel::from_spec(spec, &mut StdRng::seed_from_u64(cfg.seed));
        let mut engine = ParallelEngine::from_model(model, spec, cfg.seed, workers);
        for mb in pre.hot_batches.iter().take(EXEC_PROBE_STEPS) {
            black_box(tr.time(name, || engine.step(&hot, mb, cfg.lr)));
        }
    }
}

/// Forward+backward of the bottom MLP at the workload's shape and the
/// benchmark's batch size. Returns the FLOPs of one call.
fn probe_bottom_mlp(tr: &mut Tracer, spec: &WorkloadSpec) -> f64 {
    let mut mlp = Mlp::new(&spec.bottom_mlp, Activation::Relu, &mut StdRng::seed_from_u64(1));
    let width = spec.dense_features;
    let x = Tensor::from_vec(
        MINIBATCH,
        width,
        (0..MINIBATCH * width).map(|i| (i % 7) as f32 * 0.1).collect(),
    );
    let out = mlp.out_width();
    let g = Tensor::from_vec(MINIBATCH, out, vec![1e-3; MINIBATCH * out]);
    for _ in 0..MLP_PROBE_CALLS {
        tr.time("nn.bottom_mlp", || {
            black_box(mlp.forward(&x));
            black_box(mlp.backward(&g));
        });
    }
    // Forward is one multiply-add per weight per sample; backward is two
    // (input gradient and weight gradient).
    let macs: usize = spec.bottom_mlp.windows(2).map(|w| w[0] * w[1]).sum();
    (6 * MINIBATCH * macs) as f64
}

/// Replays the serving path batch by batch: the cache lookups, then the
/// forward pass. Returns the finite-score check's failures.
fn replay_serve(
    tr: &mut Tracer,
    spec: &WorkloadSpec,
    partitions: &[HotColdPartition],
    ds: &Dataset,
    requests: &[InferRequest],
    probe_lookups: bool,
) -> u64 {
    let cfg = ServeConfig::default();
    let (mut model, master) = e2e::served_model(spec, &cfg);
    let mut cache = ServeCache::new(partitions, cfg.cold_cache_rows, cfg.freq_window);
    let mut bad = 0;
    for chunk in requests.chunks(cfg.max_batch) {
        let inputs: Vec<usize> = chunk.iter().map(|r| r.input).collect();
        let batch = MiniBatch::gather(ds, &inputs, BatchKind::Unclassified);
        black_box(tr.time("serve.cache_access", || cache.access_batch(&batch)));
        if probe_lookups {
            tr.time("embed.lookup_master", || lookups(&master, &batch));
        }
        let pred = tr.time("serve.predict", || predict(&mut model, &master, &batch));
        bad += pred.as_slice().iter().any(|p| !p.is_finite()) as u64;
    }
    bad
}

/// Runs the plan traced.
pub(crate) fn run(plan: &Plan) -> Outcome {
    let (spec, fit, test) = e2e::inputs(plan);
    let start = Instant::now();
    let serving = plan.workload.is_serve();
    let cfg = train_config(plan.size, 1);
    let mut out = Outcome::default();
    let mut sigs = Signatures::new(&plan.pins);
    let mut tr = Tracer::default();
    let mut counts = Counts::new();
    let mut step_ms = Vec::new();
    let mut replayed_steps = 0usize;
    let mut timeline = Timeline::new();
    let mut serve_report = None;
    let mut mlp_flops = 0.0;

    loop {
        let ((), pass_secs) = e2e::timed(|| {
            let (partitions, pre) = replay_setup(&mut tr, &spec, &fit, !serving, &mut counts);
            let engine = tr.time("serve.engine_build", || {
                ServeEngine::untrained(spec.clone(), partitions.clone(), ServeConfig::default())
            });
            let requests = serve_schedule(&engine, test.len(), plan);
            // Untraced: the serving report behind the serve.* counts, and on
            // the serving workload its simulated timeline and journal.
            let key = if serving { Mode::FaeW2.signature_key() } else { "serve" };
            let (report, _) =
                e2e::serve_once(&engine, &test, &requests, key, &mut out.checks, &mut sigs);
            if serving {
                timeline = report.timeline.clone();
                if !counts.contains_key("telemetry.journal_events") {
                    let mut journalled = ServeEngine::untrained(
                        spec.clone(),
                        partitions.clone(),
                        ServeConfig { workers: 1, ..ServeConfig::default() },
                    );
                    let telemetry = in_memory_journal();
                    journalled.set_telemetry(telemetry.clone());
                    let load = serve_schedule(&journalled, test.len(), plan);
                    let key = Mode::FaeJournal.signature_key();
                    e2e::serve_once(&journalled, &test, &load, key, &mut out.checks, &mut sigs);
                    counts.insert("telemetry.journal_events", telemetry.events().len() as f64);
                }
            }
            serve_report = Some(report);
            let bad = replay_serve(&mut tr, &spec, &partitions, &test, &requests, serving);
            let batches = requests.len().div_ceil(ServeConfig::default().max_batch) as u64;
            out.checks.record(batches, bad, || {
                format!("{bad} replayed serving batches scored non-finite")
            });
            mlp_flops = probe_bottom_mlp(&mut tr, &spec);

            let Some(pre) = pre else { return };
            // Untraced: FAE at one worker, the time a step costs a user.
            let (report, secs, _) = train_once(Mode::Fae, plan, &spec, &pre, &fit, &test);
            e2e::check_train(&report, Mode::Fae, &mut out.checks, &mut sigs);
            step_ms.push(secs * 1e3 / (report.hot_steps + report.cold_steps) as f64);
            counts.insert("replicator.transitions", report.transitions as f64);
            timeline = report.timeline;
            if !counts.contains_key("telemetry.journal_events") {
                let (report, _, events) =
                    train_once(Mode::FaeJournal, plan, &spec, &pre, &fit, &test);
                e2e::check_train(&report, Mode::FaeJournal, &mut out.checks, &mut sigs);
                counts.insert("telemetry.journal_events", events as f64);
            }

            let (steps, rows, bad) = replay_training(&mut tr, &spec, &pre, &test, &cfg);
            out.checks.record(steps as u64, bad, || {
                format!("{bad} replayed steps had a non-finite loss")
            });
            replayed_steps += steps;
            counts.insert("embed.rows_updated", rows as f64);
            counts.insert("replicator.sync_bytes", hot_bytes(&spec, &pre.partitions) as f64);
            probe_exec(&mut tr, &spec, &pre, &cfg);
        });
        out.repetitions += 1;
        if start.elapsed().as_secs_f64() + pass_secs > plan.seconds {
            break;
        }
    }

    let by_name = self_ms_by_name(&tr.spans);
    let med = |span: &str| by_name.get(span).map_or(0.0, |v| median(v));
    for (metric, span) in TIMED {
        // Serving's forward pass is `predict`; on the serving workload it
        // is the only forward there is.
        let span = if serving && span == "models.forward" { "serve.predict" } else { span };
        out.metrics.push(Metric { name: metric, unit: "ms", value: med(span) });
        if let Some(v) = by_name.get(span) {
            out.samples.push(Samples { name: metric.into(), unit: "ms", values: v.clone() });
        }
    }
    let mlp_ms = med("nn.bottom_mlp");
    let gflops = if mlp_ms > 0.0 { mlp_flops / (mlp_ms * 1e-3) / 1e9 } else { 0.0 };
    out.metrics.push(Metric { name: "nn.bottom_mlp_gflops", unit: "GFLOP/s", value: gflops });

    let step = median(&step_ms);
    let attributed: f64 = STEP_LAYERS.iter().filter_map(|s| by_name.get(s)).flatten().sum();
    let unattributed =
        if replayed_steps > 0 { step - attributed / replayed_steps as f64 } else { 0.0 };
    out.samples.push(Samples { name: "trainer.step_ms".into(), unit: "ms", values: step_ms });
    out.metrics.push(Metric { name: "trainer.step_ms", unit: "ms", value: step });
    out.metrics.push(Metric { name: "trainer.unattributed_ms", unit: "ms", value: unattributed });

    for (metric, phase) in SIM {
        out.metrics.push(Metric { name: metric, unit: "s", value: timeline.get(phase) });
    }
    let serve = serve_report.expect("at least one pass ran");
    counts.insert("serve.batches", serve.batches as f64);
    counts.insert("serve.mean_batch_size", serve.mean_batch_size);
    counts.insert("serve.hit_rate", serve.hit_rate);
    counts.insert("serve.rejected", serve.rejected as f64);
    for (metric, unit) in COUNTED {
        let value = counts.get(metric).copied().unwrap_or(0.0);
        out.metrics.push(Metric { name: metric, unit, value });
    }
    out.signatures = sigs.seen().clone();
    out.spans = tr.spans;
    out
}
