//! Training engines: the CPU+GPU hybrid baseline and the FAE schedule.
//!
//! Both engines train with *real* numerics (the loss/accuracy results of
//! Fig 12 and Table III come out of actual SGD on the synthetic data) and
//! simultaneously charge every mini-batch to the `fae-sysmodel` cost model
//! (the latency/power results of Figs 13–15 and Tables IV–VI come out of
//! the accumulated [`Timeline`]).
//!
//! The FAE engine follows §III-C: lead with cold batches, issue blocks of
//! `rate%` cold then `rate%` hot, synchronise the hot bags CPU↔GPU at
//! every transition (charged via [`sync_cost`]), evaluate after each
//! round and let the [`ShuffleScheduler`] adapt the rate.
//!
//! Both engines drive one private run state, and every mini-batch goes
//! through its one `step`: a baseline batch, an FAE cold batch, an FAE
//! hot batch, and a hot batch of a run degraded to CPU-only. The
//! baseline differs only in what it feeds that state: batches shuffled
//! from one continuing RNG stream, a cost profile with no hot bytes, no
//! hot tier, and an evaluation every `eval_interval` steps instead of
//! one per schedule round.
//!
//! # Resilience
//!
//! [`train_fae_resilient`] extends the FAE engine with fault injection,
//! periodic checkpoints and graceful degradation (see [`crate::faults`]
//! and [`crate::checkpoint`]):
//!
//! * **device loss** — the data-parallel group shrinks to the survivors;
//!   re-sharding (communicator re-init, dense-parameter broadcast,
//!   hot-bag re-replication) is charged to the timeline via
//!   [`reshard_cost`], and training continues at the N−1 cost model.
//!   Losing the last GPU falls back to CPU-only cold execution.
//! * **replication OOM** — the aborted replication is charged, then the
//!   run degrades to CPU-only cold execution: hot batches train against
//!   the master tables at hybrid cost, with no further sync traffic.
//! * **sync failure** — the failed sync attempts are retried with
//!   bounded exponential backoff; each failed attempt still moves the
//!   bytes (charged) and the backoff waits are charged to `Framework`.
//! * **checkpoints** — written at schedule-round boundaries (where the
//!   master tables are authoritative), atomically, with a CRC trailer.
//!   Saving charges *zero* simulated time, so a checkpointed run's cost
//!   is identical to an unmonitored one. Per-epoch shuffle orders come
//!   from RNGs derived as `mix(seed, epoch)` rather than one continuous
//!   stream, so a resumed run replays the exact batch order — resumption
//!   is bit-identical to never having stopped.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use fae_data::{BatchKind, Dataset, MiniBatch, WorkloadKind, WorkloadSpec};
use fae_embed::{DeferredSparse, HotColdPartition, SkipStats, SparseGrad};
use fae_models::{
    bridge, evaluate, Dlrm, EmbeddingSource, EvalReport, MasterEmbeddings, RecModel, Tbsm,
};
use fae_nn::Tensor;
use fae_sysmodel::power::average_gpu_power;
use fae_sysmodel::{
    cold_sparse_optimizer_cost, reshard_cost, step_cost, sync_cost, ExecMode, Phase, SystemConfig,
    Timeline,
};
use fae_telemetry::{JournalEvent, PhaseSeconds, SpanGuard, StepMode, Telemetry};

use crate::checkpoint::{latest_in, model_digest, TrainCheckpoint};
use crate::exec::{ParallelEngine, StepEngine};
use crate::faults::{
    retry_with_backoff, FaultInjector, FaultKind, FaultPlan, InjectedFault, RecoveryAction,
    RetryPolicy,
};
use crate::input_processor::Preprocessed;
use crate::oracle::{LookaheadOracle, OracleStats};
use crate::replicator::HotEmbeddings;
use crate::scheduler::{Rate, SchedulerState, ShuffleScheduler};

/// Trainer configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainConfig {
    /// SGD learning rate.
    pub lr: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Global mini-batch size (scaled with GPUs under weak scaling by the
    /// caller).
    pub minibatch_size: usize,
    /// Simulated GPU count (affects only the cost model).
    pub num_gpus: usize,
    /// Initial shuffle-scheduler rate (paper: 50).
    pub initial_rate: u32,
    /// Test mini-batches per evaluation.
    pub eval_batches: usize,
    /// Baseline: evaluate every this many steps.
    pub eval_interval: usize,
    /// Seed for model init and batch-order shuffles.
    pub seed: u64,
    /// Execution-engine worker threads (one model replica each). `1`
    /// runs the serial fast path, bit-identical to the pre-engine
    /// trainer; any fixed value is bit-identical run to run.
    pub workers: usize,
    /// Store the cold rows of the master tables as int8 (per-row affine
    /// scale+min, DESIGN.md §14), shrinking the cold majority ~4× while
    /// the calibrator-pinned hot rows stay exact f32. Off by default;
    /// unsupported for the distributed (multi-process) paths, which need
    /// whole-table f32 views. (The vendored serde shim has no field
    /// attributes, so absent-field defaulting is not available; no
    /// persisted `TrainConfig` JSON exists, only `config_seed`.)
    pub quantize_cold: bool,
    /// Lookahead-oracle window K in batches (0 disables). With K ≥ 1 the
    /// cold→hot refresh copies only the union of the next `min(K, block)`
    /// hot access sets, the window slides during the block (the entering
    /// set prefetched K−1 steps early, its transfer hidden behind
    /// compute), and the hot→cold write-back moves only resident rows.
    /// Transfer costs change; numerics do not — any K produces the same
    /// model digest as K = 0. Unsupported with `--distributed`.
    pub lookahead: usize,
    /// Stale-skip threshold in weight-delta units (0.0 disables). Cold-row
    /// sparse updates are deferred until `lr·‖accumulated‖∞` crosses the
    /// threshold, the row is about to be read, or a checkpoint flushes
    /// them; updates still pending at the end of the run are dropped —
    /// the elided stale updates of arXiv 2404.04270. Unsupported with
    /// `--distributed`.
    pub stale_skip: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 0.05,
            epochs: 1,
            minibatch_size: 64,
            num_gpus: 1,
            initial_rate: 50,
            eval_batches: 4,
            eval_interval: 50,
            seed: 0xF00D,
            workers: 1,
            quantize_cold: false,
            lookahead: 0,
            stale_skip: 0.0,
        }
    }
}

/// Fault-injection, checkpointing and resume options for
/// [`train_fae_resilient`]. The default is a no-op: no faults, no
/// checkpoints — [`train_fae`] semantics.
#[derive(Clone, Debug, Default)]
pub struct ResilienceOptions {
    /// Faults to inject, with their trigger steps and determinism seed.
    pub plan: FaultPlan,
    /// Where to write checkpoints (`None` disables checkpointing).
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every this many schedule rounds (0 disables).
    pub checkpoint_every_rounds: usize,
    /// Resume from the latest checkpoint in `checkpoint_dir`, if any.
    pub resume: bool,
    /// Abort training once this many steps have run (crash simulation
    /// for resume tests; the report comes back `interrupted`).
    pub halt_after_steps: Option<usize>,
    /// Telemetry sink: metrics, per-step journal, progress echo. The
    /// default ([`Telemetry::disabled`]) records nothing at zero cost.
    pub telemetry: Telemetry,
}

/// One evaluation snapshot along the training run (Fig 12's curves).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EvalPoint {
    /// Training steps completed when this evaluation ran.
    pub iteration: usize,
    /// Test-set BCE loss.
    pub test_loss: f64,
    /// Test-set accuracy.
    pub test_accuracy: f64,
    /// Scheduler rate after this round (FAE only).
    pub rate: Option<u32>,
    /// Cumulative pure-GPU hot steps when this evaluation ran, so
    /// accuracy can be correlated with the hot/cold schedule.
    pub hot_steps: usize,
    /// Cumulative hybrid (cold) steps when this evaluation ran.
    pub cold_steps: usize,
    /// Cumulative simulated seconds when this evaluation ran.
    pub sim_seconds: f64,
}

/// Everything a training run produces.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Evaluation snapshots over training.
    pub history: Vec<EvalPoint>,
    /// Final held-out metrics.
    pub final_test: EvalReport,
    /// Final train-subset metrics (paper Table III reports both).
    pub final_train: EvalReport,
    /// Simulated phase-tagged time.
    pub timeline: Timeline,
    /// Simulated wall-clock seconds (== `timeline.total()`).
    pub simulated_seconds: f64,
    /// Simulated average per-GPU power (Table VI).
    pub avg_gpu_power_w: f64,
    /// Steps executed in pure-GPU hot mode.
    pub hot_steps: usize,
    /// Steps executed in hybrid (baseline/cold) mode.
    pub cold_steps: usize,
    /// Hot↔cold transitions (each charged an embedding sync).
    pub transitions: usize,
    /// Final scheduler rate (FAE only).
    pub final_rate: Option<u32>,
    /// Faults injected during the run, in firing order.
    pub faults: Vec<InjectedFault>,
    /// Recovery actions taken in response (including resume itself).
    pub recoveries: Vec<RecoveryAction>,
    /// True when the run was halted early (`halt_after_steps`).
    pub interrupted: bool,
    /// CRC-32 digest over the final model state (dense parameters +
    /// master embedding tables; see [`crate::checkpoint::model_digest`]).
    /// Two runs that trained the same model report the same digest, no
    /// matter where the shards were computed — this is the acceptance
    /// check for the distributed engine.
    pub model_digest: u32,
    /// Lookahead-oracle counters (all zero when `lookahead == 0`).
    pub oracle: OracleStats,
    /// Stale-skip counters (all zero when `stale_skip == 0`).
    pub skip: SkipStats,
}

/// A recommendation model of either family, chosen by the workload spec.
pub enum AnyModel {
    /// DLRM (RMC2/RMC3).
    Dlrm(Box<Dlrm>),
    /// TBSM (RMC1).
    Tbsm(Box<Tbsm>),
}

impl AnyModel {
    /// Builds the model family the spec calls for.
    pub fn from_spec(spec: &WorkloadSpec, rng: &mut impl Rng) -> Self {
        match spec.kind {
            WorkloadKind::Dlrm => AnyModel::Dlrm(Box::new(Dlrm::from_spec(spec, rng))),
            WorkloadKind::Tbsm => AnyModel::Tbsm(Box::new(Tbsm::from_spec(spec, rng))),
        }
    }
}

impl RecModel for AnyModel {
    fn forward(&mut self, batch: &MiniBatch, emb: &dyn EmbeddingSource) -> Tensor {
        match self {
            AnyModel::Dlrm(m) => m.forward(batch, emb),
            AnyModel::Tbsm(m) => m.forward(batch, emb),
        }
    }

    fn backward(&mut self, grad: &Tensor) -> Vec<SparseGrad> {
        match self {
            AnyModel::Dlrm(m) => m.backward(grad),
            AnyModel::Tbsm(m) => m.backward(grad),
        }
    }

    fn sgd_step(&mut self, lr: f32) {
        match self {
            AnyModel::Dlrm(m) => m.sgd_step(lr),
            AnyModel::Tbsm(m) => m.sgd_step(lr),
        }
    }

    fn zero_grad(&mut self) {
        match self {
            AnyModel::Dlrm(m) => m.zero_grad(),
            AnyModel::Tbsm(m) => m.zero_grad(),
        }
    }

    fn dense_param_count(&self) -> usize {
        match self {
            AnyModel::Dlrm(m) => m.dense_param_count(),
            AnyModel::Tbsm(m) => m.dense_param_count(),
        }
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        match self {
            AnyModel::Dlrm(m) => m.write_params(out),
            AnyModel::Tbsm(m) => m.write_params(out),
        }
    }

    fn read_params(&mut self, src: &[f32]) -> usize {
        match self {
            AnyModel::Dlrm(m) => m.read_params(src),
            AnyModel::Tbsm(m) => m.read_params(src),
        }
    }

    fn write_grads(&self, out: &mut Vec<f32>) {
        match self {
            AnyModel::Dlrm(m) => m.write_grads(out),
            AnyModel::Tbsm(m) => m.write_grads(out),
        }
    }

    fn read_grads(&mut self, src: &[f32]) -> usize {
        match self {
            AnyModel::Dlrm(m) => m.read_grads(src),
            AnyModel::Tbsm(m) => m.read_grads(src),
        }
    }
}

/// Splits the head of a test dataset into evaluation mini-batches.
pub fn make_test_batches(test: &Dataset, batch_size: usize, max_batches: usize) -> Vec<MiniBatch> {
    let n = test.len();
    (0..n)
        .collect::<Vec<_>>()
        .chunks(batch_size)
        .take(max_batches)
        .map(|c| MiniBatch::gather(test, c, BatchKind::Unclassified))
        .collect()
}

/// The run's owned cost model. It owns the system description, because
/// graceful degradation re-shapes the machine mid-run: after a device
/// loss the surviving GPU count changes every per-step and sync cost, so
/// the caches must be rebuilt. `step_cost` is pure in the batch size and
/// an epoch reuses two sizes (full + remainder), so per-size costs are
/// memoised.
struct CostModel {
    profile: fae_sysmodel::ModelProfile,
    sys: SystemConfig,
    sync_bytes: f64,
    // Lookup-only (never iterated), so iteration order cannot reach the
    // digest — which is what lets these be HashMaps under the flow-aware
    // det-taint rule.
    cold: HashMap<usize, Timeline>,
    hot: HashMap<usize, Timeline>,
    sync: Timeline,
}

impl CostModel {
    fn new(profile: fae_sysmodel::ModelProfile, num_gpus: usize, sync_bytes: f64) -> Self {
        let sys = SystemConfig::paper_server(num_gpus);
        let sync = sync_cost(&sys, sync_bytes);
        Self { profile, sys, sync_bytes, cold: HashMap::new(), hot: HashMap::new(), sync }
    }

    /// Re-shapes the machine to `num_gpus` survivors: every cached cost
    /// is stale, so the caches are dropped and the sync cost recomputed.
    fn set_gpus(&mut self, num_gpus: usize) {
        self.sys = SystemConfig::paper_server(num_gpus);
        self.cold.clear();
        self.hot.clear();
        self.sync = sync_cost(&self.sys, self.sync_bytes);
    }

    /// Cost of one hybrid (cold) step at this batch size.
    fn cold_step_cost(&mut self, batch: usize) -> &Timeline {
        self.cold
            .entry(batch)
            .or_insert_with(|| step_cost(&self.profile, &self.sys, ExecMode::BaselineHybrid, batch))
    }

    /// Cost of one pure-GPU (hot) step at this batch size.
    fn hot_step_cost(&mut self, batch: usize) -> &Timeline {
        self.hot
            .entry(batch)
            .or_insert_with(|| step_cost(&self.profile, &self.sys, ExecMode::FaeHotGpu, batch))
    }

    /// Charges a cold step whose sparse optimizer applied only
    /// `applied` of the `produced` row-updates (the rest deferred by the
    /// stale-skip pool, or flushed extras when `applied > produced`).
    /// The CPU sparse-SGD term — the paper's headline cold bottleneck —
    /// is rescaled by `applied / produced`; every other phase is
    /// unchanged (the forward/backward still ran in full).
    fn charge_cold(&mut self, timeline: &mut Timeline, batch: usize, produced: u64, applied: u64) {
        if produced == 0 || applied == produced {
            timeline.merge(self.cold_step_cost(batch));
            return;
        }
        let entry = self.cold_step_cost(batch).clone();
        let sparse = cold_sparse_optimizer_cost(&self.profile, &self.sys, batch);
        let delta = sparse * (applied as f64 / produced as f64 - 1.0);
        let mut adjusted = Timeline::new();
        for phase in Phase::ALL {
            let mut secs = entry.get(phase);
            if phase == Phase::Optimizer {
                secs = (secs + delta).max(0.0);
            }
            adjusted.add(phase, secs);
        }
        adjusted.add_cpu_resident((entry.cpu_resident() + delta).max(0.0));
        timeline.merge(&adjusted);
    }

    fn sync(&self) -> &Timeline {
        &self.sync
    }

    /// A sync charge for an oracle-sized partial transfer.
    fn sync_for_bytes(&self, bytes: f64) -> Timeline {
        sync_cost(&self.sys, bytes)
    }
}

/// Derives the shuffle seed for one epoch (SplitMix64 finalizer).
///
/// Each epoch's batch order comes from its own RNG rather than a stream
/// threaded through training, so a resumed run can regenerate the exact
/// order of any epoch without replaying the ones before it.
fn shuffle_seed(seed: u64, epoch: usize) -> u64 {
    let mut z = seed.wrapping_add((epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The state of one training run, and the one place that trains a
/// mini-batch, syncs the tiers, evaluates, checkpoints and reports.
///
/// The baseline and FAE drive the same state. They differ only in what
/// they feed it: the batches and the tier each asks for, the cost
/// profile, whether a hot tier exists, and when to evaluate. Every
/// timeline mutation is journalled as the delta against `tl_prev`, so
/// the journal's phase seconds sum exactly to the final
/// `TrainReport::simulated_seconds`.
struct Run<'a, En: StepEngine> {
    cfg: &'a TrainConfig,
    engine: En,
    /// The CPU master tables — authoritative at every round boundary.
    master: MasterEmbeddings,
    /// The replicated hot bags; `None` without a hot tier (the baseline,
    /// or an FAE run degraded to CPU-only execution).
    hot: Option<HotEmbeddings>,
    /// Hot/cold row split, for the stale-skip pool.
    partitions: &'a [HotColdPartition],
    /// Deferred cold-row gradients (DESIGN.md §15), when stale-skip is on.
    skip: Option<DeferredSparse>,
    /// The hot stream the lookahead oracle reads, when lookahead is on.
    oracle_batches: Option<Arc<Vec<MiniBatch>>>,
    /// This epoch's streaming oracle over the hot order.
    oracle: Option<LookaheadOracle>,
    oracle_stats: OracleStats,
    costs: CostModel,
    /// Bytes moved by a re-shard after a device loss.
    dense_bytes: f64,
    hot_bytes: f64,
    timeline: Timeline,
    tl_prev: Timeline,
    sim_at_start: f64,
    test_batches: Vec<MiniBatch>,
    history: Vec<EvalPoint>,
    steps: usize,
    hot_steps: usize,
    cold_steps: usize,
    transitions: usize,
    injector: FaultInjector,
    retry: RetryPolicy,
    net_faults: Vec<InjectedFault>,
    recoveries: Vec<RecoveryAction>,
    telem: Telemetry,
    span: SpanGuard,
    halt_at: usize,
    interrupted: bool,
}

impl<'a, En: StepEngine> Run<'a, En> {
    /// A fresh run with no hot tier, no stale-skip pool and no oracle;
    /// the FAE trainer attaches those it uses.
    fn new(
        cfg: &'a TrainConfig,
        opts: &ResilienceOptions,
        engine: En,
        master: MasterEmbeddings,
        costs: CostModel,
        test_batches: Vec<MiniBatch>,
    ) -> Self {
        let telem = opts.telemetry.clone();
        let mut injector = FaultInjector::new(opts.plan.clone());
        injector.set_telemetry(telem.clone());
        let dense_bytes = engine.primary_ref().dense_param_count() as f64 * 4.0;
        Self {
            cfg,
            engine,
            master,
            hot: None,
            partitions: &[],
            skip: None,
            oracle_batches: None,
            oracle: None,
            oracle_stats: OracleStats::default(),
            costs,
            dense_bytes,
            hot_bytes: 0.0,
            timeline: Timeline::new(),
            tl_prev: Timeline::new(),
            sim_at_start: 0.0,
            test_batches,
            history: Vec::new(),
            steps: 0,
            hot_steps: 0,
            cold_steps: 0,
            transitions: 0,
            injector,
            retry: RetryPolicy::default(),
            net_faults: Vec::new(),
            recoveries: Vec::new(),
            span: telem.span("train"),
            telem,
            halt_at: opts.halt_after_steps.unwrap_or(usize::MAX),
            interrupted: false,
        }
    }

    /// Takes over the counters, timeline, history and fault log of a
    /// checkpoint — the inverse of [`Run::checkpoint`].
    fn restore(&mut self, ck: &TrainCheckpoint) {
        self.timeline = ck.timeline.clone();
        self.tl_prev = ck.timeline.clone();
        self.sim_at_start = ck.timeline.total();
        self.history = ck.history.clone();
        self.steps = ck.steps as usize;
        self.hot_steps = ck.hot_steps as usize;
        self.cold_steps = ck.cold_steps as usize;
        self.transitions = ck.transitions as usize;
        if ck.cold_only {
            self.hot = None;
        }
        self.injector.restore(ck.faults.clone());
        self.recoveries = ck.recoveries.clone();
        self.recoveries.push(RecoveryAction::ResumedFromCheckpoint { step: ck.steps });
    }

    /// Journals the charges since the last journalled event, if
    /// telemetry is on and `event` makes an event of them.
    fn journal(&mut self, event: impl FnOnce(PhaseSeconds) -> Option<JournalEvent>) {
        if self.telem.enabled() {
            let phases = PhaseSeconds::delta(&self.tl_prev, &self.timeline);
            self.tl_prev.clone_from(&self.timeline);
            if let Some(ev) = event(phases) {
                self.telem.emit(&ev);
            }
        }
    }

    /// Absorbs the engine's transport side effects into the run's
    /// bookkeeping. `step_charges` fold into the next journalled delta;
    /// `event_charges` advance the snapshot too, because the drained
    /// journal events already carry those phase seconds.
    fn absorb_net(&mut self) {
        let net = self.engine.drain_net();
        if net.is_empty() {
            return;
        }
        self.timeline.merge(&net.step_charges);
        self.timeline.merge(&net.event_charges);
        self.tl_prev.merge(&net.event_charges);
        for ev in &net.journal {
            self.telem.emit(ev);
        }
        self.net_faults.extend(net.faults);
        self.recoveries.extend(net.recoveries);
    }

    /// Closes a unit of engine work — a step, a transition or the run:
    /// absorbs the engine's side effects, then journals.
    fn settle(&mut self, event: impl FnOnce(PhaseSeconds) -> Option<JournalEvent>) {
        self.absorb_net();
        self.journal(event);
    }

    /// Trains one mini-batch: the engine step, the sparse update on the
    /// tier it ran on, its cost and its journal entry. `tier` asks for
    /// the hot bags; without a hot tier the batch trains on the master
    /// tables at hybrid cost. `rate` is the scheduler rate the journal
    /// records. Returns `true` once the run has to halt.
    fn step(&mut self, mb: &MiniBatch, tier: StepMode, rate: u32) -> bool {
        let step = self.steps as u64;
        let lr = self.cfg.lr;
        let hot = if tier == StepMode::Hot { self.hot.as_ref() } else { None };
        let (loss, mode) = if let Some(hot) = hot {
            // Hot steps apply the merged sparse gradient shard-parallel —
            // disjoint row ranges, exact.
            let (loss, grads) = self.engine.engine_step(hot, mb, step, StepMode::Hot, lr);
            hot.apply_shared(&grads, lr);
            self.timeline.merge(self.costs.hot_step_cost(mb.len()));
            self.hot_steps += 1;
            (loss, StepMode::Hot)
        } else {
            let loss = self.cold_step(mb, step);
            self.cold_steps += 1;
            (loss, StepMode::Cold)
        };
        self.steps += 1;
        let steps = self.steps as u64;
        self.settle(|phases| {
            Some(JournalEvent::Step { step: steps, mode, rate, loss: loss as f64, phases })
        });
        if self.telem.enabled() {
            let counter =
                if mode == StepMode::Hot { "train.steps_hot" } else { "train.steps_cold" };
            self.telem.counter_add(counter, 1);
            self.telem.observe("train.step_loss", loss as f64);
        }
        self.interrupted = self.steps >= self.halt_at;
        self.interrupted
    }

    /// One step on the master tables under optional stale-skip: flush
    /// the pending rows this batch is about to read (so the forward pass
    /// never sees starved weights), run the step, defer cold-row updates
    /// into the pool, and charge the hybrid cost with the
    /// sparse-optimizer term rescaled by the fraction of row-updates
    /// actually applied. Returns the loss.
    fn cold_step(&mut self, mb: &MiniBatch, step: u64) -> f32 {
        let lr = self.cfg.lr;
        let Some(pool) = self.skip.as_mut() else {
            let (loss, grads) = self.engine.engine_step(&self.master, mb, step, StepMode::Cold, lr);
            self.master.apply_sparse_grads(&grads, lr);
            self.costs.charge_cold(&mut self.timeline, mb.len(), 0, 0);
            return loss;
        };
        let mut flushed_now = 0u64;
        // Raw CSR indices, duplicates and all — `take_for_access` tolerates
        // them, and skipping the sort/dedup keeps this off the step's
        // critical path.
        let access: Vec<&[u32]> = mb.sparse.iter().map(|c| c.indices.as_slice()).collect();
        if let Some((flush, n)) = pool.take_for_access(&access) {
            self.master.apply_sparse_grads(&flush, lr);
            flushed_now = n;
        }
        let (loss, grads) = self.engine.engine_step(&self.master, mb, step, StepMode::Cold, lr);
        let produced: u64 = grads.iter().map(|g| g.nnz_rows() as u64).sum();
        let (apply, _) = pool.absorb(&grads, self.partitions);
        let applied: u64 = apply.iter().map(|g| g.nnz_rows() as u64).sum();
        self.master.apply_sparse_grads(&apply, lr);
        // Flushed rows are real optimizer work done this step, so they count
        // toward the applied fraction (possibly pushing it past 1).
        self.costs.charge_cold(&mut self.timeline, mb.len(), produced, applied + flushed_now);
        loss
    }

    /// Charges the initial replication of the hot bags onto the GPUs.
    fn replicate(&mut self) {
        let Some(hot) = &self.hot else { return };
        let bytes = hot.sync_bytes() as u64;
        self.timeline.merge(self.costs.sync());
        let step = self.steps as u64;
        self.journal(|phases| {
            Some(JournalEvent::Sync { step, direction: "initial".into(), bytes, phases })
        });
        self.telem.counter_add("replicator.sync_bytes", bytes);
    }

    /// Starts an epoch over `hot_order`: spawns the streaming oracle over
    /// it, fast-forwarded to `cursor` for a resumed run. A run without
    /// hot bags has nothing for the oracle to manage.
    fn start_epoch(&mut self, hot_order: &[usize], cursor: usize) {
        self.oracle = None;
        let (Some(batches), Some(_)) = (&self.oracle_batches, &self.hot) else { return };
        match LookaheadOracle::spawn(batches.clone(), hot_order.to_vec(), self.cfg.lookahead) {
            Ok(mut o) => {
                o.skip(cursor);
                self.oracle = Some(o);
            }
            Err(e) => eprintln!("fae: lookahead oracle unavailable ({e}); full-bag syncs"),
        }
    }

    /// Drops the hot tier for the rest of the run: CPU-only cold
    /// execution, with no further sync traffic.
    fn fall_back_to_cold(&mut self, step: u64) {
        self.hot = None;
        self.oracle = None;
        self.engine.on_cold_only(step);
        self.recoveries.push(RecoveryAction::ColdFallback { step });
    }

    /// Journals a recovery action; it carries no simulated time.
    fn recovery(&self, step: u64, action: &str, detail: String) {
        self.telem.emit(&JournalEvent::Recovery { step, action: action.into(), detail });
    }

    /// Round boundary. Device loss manifests here (the allreduce after it
    /// would time out): shrink to the survivors, pay the re-shard,
    /// continue at the N−1 cost model. Losing the last GPU falls back to
    /// CPU-only cold execution.
    fn start_round(&mut self) {
        let Some(f) = self.injector.fire(FaultKind::DeviceLoss, self.steps as u64) else {
            return;
        };
        let from = self.costs.sys.num_gpus;
        if from > 1 {
            let to = from - 1;
            self.costs.set_gpus(to);
            self.timeline.merge(&reshard_cost(&self.costs.sys, self.dense_bytes, self.hot_bytes));
            self.recoveries.push(RecoveryAction::ShrankReplicas {
                step: f.step,
                from: from as u32,
                to: to as u32,
            });
            let step = f.step;
            self.journal(|phases| {
                Some(JournalEvent::Charge { step, label: "reshard".into(), phases })
            });
            self.recovery(step, "shrank-replicas", format!("{from} -> {to}"));
            self.telem.gauge_set("train.gpus_active", to as f64);
        } else if self.hot.is_some() {
            self.fall_back_to_cold(f.step);
            self.recovery(f.step, "cold-fallback", "last GPU lost; CPU-only cold execution".into());
        }
    }

    /// Cold→hot transition before a hot block of `k` batches. A failed
    /// replication degrades the run to CPU-only; failed syncs are
    /// retried as pure cost; the refresh then copies the full bags, or
    /// with the oracle only the union of the next `min(K, k)` access
    /// sets (everything else is evicted, which is free — the master
    /// already holds those rows).
    fn refresh(&mut self, k: usize) {
        let Some(full_bytes) = self.hot.as_ref().map(|h| h.sync_bytes() as u64) else { return };
        if let Some(f) = self.injector.fire(FaultKind::ReplicationOom, self.steps as u64) {
            // The aborted replication attempt still moved (some of) the
            // bytes; charge it, then degrade.
            self.timeline.merge(self.costs.sync());
            self.fall_back_to_cold(f.step);
            let (step, bytes) = (f.step, full_bytes);
            self.journal(|phases| {
                Some(JournalEvent::Sync {
                    step,
                    direction: "aborted-replication".into(),
                    bytes,
                    phases,
                })
            });
            self.recovery(step, "cold-fallback", "hot-bag replication aborted (OOM)".into());
            return;
        }
        if let Some(f) = self.injector.fire(FaultKind::SyncFailure, self.steps as u64) {
            // Deterministic number of failed attempts in [1, max_attempts):
            // each moves the bytes before dying, and each backoff wait
            // stalls the framework.
            let failures =
                1 + self.injector.variation(&f, (self.retry.max_attempts - 1) as u64) as u32;
            let mut waited = 0.0;
            for attempt in 1..=failures {
                self.timeline.merge(self.costs.sync());
                let d = self.retry.backoff_delay(attempt);
                self.timeline.add(Phase::Framework, d);
                waited += d;
            }
            self.recoveries.push(RecoveryAction::SyncRetried {
                step: f.step,
                attempts: failures + 1,
                waited_s: waited,
            });
            // One journal entry covers every failed attempt: the re-moved
            // bytes plus the Framework-phase backoff stalls.
            let (step, bytes) = (f.step, failures as u64 * full_bytes);
            self.journal(|phases| {
                Some(JournalEvent::Sync { step, direction: "retry".into(), bytes, phases })
            });
            let detail = format!("{} attempts, {waited:.3}s backoff", failures + 1);
            self.recovery(step, "sync-retried", detail);
        }
        let Some(hot) = self.hot.as_mut() else { return };
        let bytes = if let Some(o) = self.oracle.as_mut() {
            let plan = o.block_plan(k, self.master.num_tables());
            let (moved, evicted) = hot.refresh_rows(&self.master, &plan);
            self.oracle_stats.prefetched_rows += plan.iter().map(|r| r.len() as u64).sum::<u64>();
            self.oracle_stats.evicted_rows += evicted;
            self.oracle_stats.moved_bytes += moved;
            self.oracle_stats.full_bytes += full_bytes;
            self.timeline.merge(&self.costs.sync_for_bytes(moved as f64));
            moved
        } else {
            hot.refresh_from(&self.master);
            self.timeline.merge(self.costs.sync());
            full_bytes
        };
        self.transitions += 1;
        self.engine.on_refresh(self.steps as u64, &self.master, hot);
        self.settle_sync("refresh", bytes);
    }

    /// The oracle's work before hot batch `j` of a `k`-batch block:
    /// slide the window and check this step's rows are resident.
    fn prefetch(&mut self, j: usize, k: usize, batch: usize) {
        let (Some(o), Some(hot)) = (self.oracle.as_mut(), self.hot.as_mut()) else { return };
        // Slide the window: the access set entering it is fetched K−1
        // steps before it executes, so its transfer overlaps K−1 steps of
        // compute; only the non-hidden excess is charged. Sets past this
        // block are left to the next block's plan — the master thaws
        // between blocks, so bytes fetched across the boundary would go
        // stale.
        let window = o.window();
        if j > 0 && j + window - 1 < k {
            if let Some(entering) = o.peek(window - 1) {
                let (rows, bytes) = hot.fetch_missing(&self.master, &entering.per_table);
                if rows > 0 {
                    self.oracle_stats.prefetched_rows += rows;
                    self.oracle_stats.moved_bytes += bytes;
                    let hidden = (window - 1) as f64 * self.costs.hot_step_cost(batch).total();
                    let excess =
                        (self.costs.sync_for_bytes(bytes as f64).total() - hidden).max(0.0);
                    self.timeline.add(Phase::EmbedSync, excess);
                }
            }
        }
        // Demand self-check: with an exact oracle this step's rows are
        // already resident, so misses stay 0; a nonzero count is a planner
        // bug the fetch below keeps from corrupting training.
        if let Some(cur) = o.advance() {
            let accessed = cur.rows() as u64;
            let (miss_rows, miss_bytes) = hot.fetch_missing(&self.master, &cur.per_table);
            if miss_rows > 0 {
                self.oracle_stats.misses += miss_rows;
                self.oracle_stats.moved_bytes += miss_bytes;
                self.timeline.merge(&self.costs.sync_for_bytes(miss_bytes as f64));
            }
            self.oracle_stats.hits += accessed - miss_rows;
        }
    }

    /// Hot→cold transition after a hot block: the full bags, or with the
    /// oracle only the resident rows (the master copy of everything else
    /// is already authoritative), go back to the master tables.
    fn write_back(&mut self) {
        let Some(hot) = self.hot.as_ref() else { return };
        let bytes = if self.oracle.is_some() {
            let bytes = hot.write_back_resident(&mut self.master);
            self.oracle_stats.moved_bytes += bytes;
            self.oracle_stats.full_bytes += hot.sync_bytes() as u64;
            self.timeline.merge(&self.costs.sync_for_bytes(bytes as f64));
            bytes
        } else {
            hot.write_back(&mut self.master);
            self.timeline.merge(self.costs.sync());
            hot.sync_bytes() as u64
        };
        self.transitions += 1;
        self.engine.on_write_back(self.steps as u64, &self.master);
        self.settle_sync("write-back", bytes);
    }

    /// Journals a completed transition with the engine's side effects.
    fn settle_sync(&mut self, direction: &str, bytes: u64) {
        let step = self.steps as u64;
        self.settle(|phases| {
            Some(JournalEvent::Sync { step, direction: direction.into(), bytes, phases })
        });
        self.telem.counter_add("replicator.sync_bytes", bytes);
    }

    /// Evaluates on the master tables and records the point. With a
    /// scheduler, it observes the loss and adapts its rate first.
    fn eval_round(&mut self, scheduler: Option<&mut ShuffleScheduler>) {
        let e = evaluate(self.engine.primary(), &self.master, &self.test_batches);
        let rate = scheduler.map(|s| s.observe_test_loss(e.loss).pct());
        self.history.push(EvalPoint {
            iteration: self.steps,
            test_loss: e.loss,
            test_accuracy: e.accuracy,
            rate,
            hot_steps: self.hot_steps,
            cold_steps: self.cold_steps,
            sim_seconds: self.timeline.total(),
        });
        self.telem.emit(&JournalEvent::Eval {
            step: self.steps as u64,
            test_loss: e.loss,
            test_accuracy: e.accuracy,
            rate,
            hot_steps: self.hot_steps as u64,
            cold_steps: self.cold_steps as u64,
            sim_seconds: self.timeline.total(),
        });
    }

    /// Writes a checkpoint at a round boundary, where the master tables
    /// are authoritative and the scheduler has just adapted. Saving
    /// charges no simulated time — a monitored run costs the same as an
    /// unmonitored one — except backoff after injected I/O failures.
    fn checkpoint(
        &mut self,
        dir: &Path,
        epoch: usize,
        cursors: (usize, usize),
        sched: SchedulerState,
    ) {
        // Flush deferred updates into the master before snapshotting: the
        // checkpoint must carry no hidden state for resume to stay
        // bit-identical (a resumed run restarts with an empty pool, and
        // the continuing run also flushed here — same state either way).
        if let Some((flush, _)) = self.skip.as_mut().and_then(DeferredSparse::flush_all) {
            self.master.apply_sparse_grads(&flush, self.cfg.lr);
        }
        let mut dense_params = Vec::new();
        self.engine.primary_ref().write_params(&mut dense_params);
        let ck = TrainCheckpoint {
            config_seed: self.cfg.seed,
            epoch: epoch as u32,
            hot_cursor: cursors.0 as u64,
            cold_cursor: cursors.1 as u64,
            steps: self.steps as u64,
            hot_steps: self.hot_steps as u64,
            cold_steps: self.cold_steps as u64,
            transitions: self.transitions as u64,
            gpus_active: self.costs.sys.num_gpus as u32,
            cold_only: self.hot.is_none(),
            scheduler: sched,
            timeline: self.timeline.clone(),
            history: self.history.clone(),
            faults: self.injector.log().to_vec(),
            recoveries: self.recoveries.clone(),
            dense_params,
            tables: TrainCheckpoint::snapshot_master(&self.master),
        };
        // Transient I/O faults make the first save attempts fail; the
        // bounded-backoff retry absorbs them.
        let step = self.steps as u64;
        let io_failures = self
            .injector
            .fire(FaultKind::TransientIo, step)
            .map(|f| 1 + self.injector.variation(&f, (self.retry.max_attempts - 1) as u64) as u32)
            .unwrap_or(0);
        let saved = retry_with_backoff(&self.retry, |attempt| {
            if attempt <= io_failures {
                Err(io::Error::other("injected transient i/o failure"))
            } else {
                ck.save(dir)
            }
        });
        match saved {
            Ok(r) => {
                if r.attempts > 1 {
                    self.timeline.add(Phase::Framework, r.waited_s);
                    self.recoveries.push(RecoveryAction::RetriedIo {
                        attempts: r.attempts,
                        waited_s: r.waited_s,
                    });
                    self.journal(|phases| {
                        Some(JournalEvent::Charge { step, label: "checkpoint-io".into(), phases })
                    });
                    let detail = format!("{} attempts, {:.3}s backoff", r.attempts, r.waited_s);
                    self.recovery(step, "retried-io", detail);
                }
                self.telem.counter_add("train.checkpoints_saved", 1);
            }
            Err((e, attempts, _)) => {
                // Checkpointing is best-effort: losing one snapshot must
                // not kill the training run.
                eprintln!("fae: checkpoint save failed after {attempts} attempts: {e}");
            }
        }
    }

    /// Ends the run: the final evaluations on the test batches and on
    /// `train_sample`, the run's closing journal entries and metrics, the
    /// model digest and the report.
    fn finish(mut self, final_rate: Option<u32>, train_sample: &[MiniBatch]) -> TrainReport {
        // Whatever the skip pool still holds is dropped — these are the
        // elided stale updates of arXiv 2404.04270. The final evaluation
        // (and the digest) see the master without them.
        if let Some(pool) = self.skip.as_mut() {
            pool.drop_pending();
        }
        let skip_stats = self.skip.as_ref().map(DeferredSparse::stats).unwrap_or_default();
        let final_test = evaluate(self.engine.primary(), &self.master, &self.test_batches);
        let final_train = evaluate(self.engine.primary(), &self.master, train_sample);
        // Any transport charges drained after the last step have no Step
        // event to absorb them; journal the residual so the phase seconds
        // still sum to the final timeline.
        let step = self.steps as u64;
        self.settle(|residual| {
            (residual.total() > 0.0).then(|| JournalEvent::Charge {
                step,
                label: "net-drain".into(),
                phases: residual,
            })
        });
        let telem = &self.telem;
        if self.skip.is_some() {
            telem.counter_add("skip.deferred", skip_stats.deferred);
            telem.counter_add("skip.flushed_threshold", skip_stats.flushed_threshold);
            telem.counter_add("skip.flushed_access", skip_stats.flushed_access);
            telem.counter_add("skip.flushed_checkpoint", skip_stats.flushed_checkpoint);
            telem.counter_add("skip.dropped", skip_stats.dropped);
        }
        let oracle = self.oracle_stats;
        if self.oracle_batches.is_some() {
            telem.counter_add("oracle.prefetched_rows", oracle.prefetched_rows);
            telem.counter_add("oracle.evicted_rows", oracle.evicted_rows);
            telem.counter_add("oracle.hits", oracle.hits);
            telem.counter_add("oracle.misses", oracle.misses);
            telem.counter_add("oracle.moved_bytes", oracle.moved_bytes);
            telem.counter_add(
                "oracle.saved_bytes",
                oracle.full_bytes.saturating_sub(oracle.moved_bytes),
            );
        }
        let (steps, sim) = (self.steps, self.timeline.total());
        telem.emit(&JournalEvent::RunEnd {
            steps: steps as u64,
            hot_steps: self.hot_steps as u64,
            cold_steps: self.cold_steps as u64,
            transitions: self.transitions as u64,
            simulated_seconds: sim,
            final_accuracy: final_test.accuracy,
            final_rate,
            interrupted: self.interrupted,
        });
        telem.gauge_set("train.simulated_seconds", sim);
        telem.gauge_set("train.final_accuracy", final_test.accuracy);
        telem.gauge_set("train.steps_per_sec", if sim > 0.0 { steps as f64 / sim } else { 0.0 });
        telem.gauge_set(
            "train.hot_step_share",
            if steps > 0 { self.hot_steps as f64 / steps as f64 } else { 0.0 },
        );
        self.span.add_sim(sim - self.sim_at_start);
        drop(self.span);
        let mut final_dense = Vec::new();
        self.engine.primary_ref().write_params(&mut final_dense);
        let digest = model_digest(&final_dense, &TrainCheckpoint::snapshot_master(&self.master));
        let mut faults = self.injector.log().to_vec();
        if !self.net_faults.is_empty() {
            faults.extend(self.net_faults);
            faults.sort_by_key(|f| f.step);
        }
        TrainReport {
            history: self.history,
            final_test,
            final_train,
            simulated_seconds: sim,
            avg_gpu_power_w: average_gpu_power(&self.timeline),
            timeline: self.timeline,
            hot_steps: self.hot_steps,
            cold_steps: self.cold_steps,
            transitions: self.transitions,
            final_rate,
            faults,
            recoveries: self.recoveries,
            interrupted: self.interrupted,
            model_digest: digest,
            oracle,
            skip: skip_stats,
        }
    }
}

/// Trains the baseline: every mini-batch in hybrid CPU-GPU mode.
pub fn train_baseline(
    spec: &WorkloadSpec,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
) -> TrainReport {
    // One continuing RNG stream: the model, then the master tables, then
    // every epoch's shuffle.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let model = AnyModel::from_spec(spec, &mut rng);
    let master = MasterEmbeddings::from_spec(spec, &mut rng);
    let engine = ParallelEngine::from_model(model, spec, cfg.seed, cfg.workers);
    let costs = CostModel::new(bridge::profile_for(spec, 0.0), cfg.num_gpus, 0.0);
    let test_batches = make_test_batches(test, cfg.minibatch_size, cfg.eval_batches);
    let mut run = Run::new(cfg, &ResilienceOptions::default(), engine, master, costs, test_batches);
    let mut order: Vec<usize> = (0..train.len()).collect();
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(cfg.minibatch_size) {
            // The baseline has no scheduler, so the journalled rate is 0.
            run.step(&MiniBatch::gather(train, chunk, BatchKind::Unclassified), StepMode::Cold, 0);
            if run.steps.is_multiple_of(cfg.eval_interval) {
                run.eval_round(None);
            }
        }
    }
    run.eval_round(None);
    let train_sample = make_test_batches(train, cfg.minibatch_size, cfg.eval_batches);
    run.finish(None, &train_sample)
}

/// Trains with the FAE framework over a preprocessed hot/cold stream.
///
/// Equivalent to [`train_fae_resilient`] with default (no-op)
/// [`ResilienceOptions`].
pub fn train_fae(
    spec: &WorkloadSpec,
    pre: &Preprocessed,
    test: &Dataset,
    cfg: &TrainConfig,
) -> TrainReport {
    train_fae_resilient(spec, pre, test, cfg, &ResilienceOptions::default())
}

/// Trains with the FAE framework under fault injection, periodic
/// checkpointing and graceful degradation (see the module docs).
///
/// With default options this is exactly [`train_fae`]. With
/// `checkpoint_dir` + `resume`, a run killed at any step and restarted
/// produces a [`TrainReport`] bit-identical to one that never stopped.
pub fn train_fae_resilient(
    spec: &WorkloadSpec,
    pre: &Preprocessed,
    test: &Dataset,
    cfg: &TrainConfig,
    opts: &ResilienceOptions,
) -> TrainReport {
    train_fae_with_engine(spec, pre, test, cfg, opts, |model| {
        ParallelEngine::from_model(model, spec, cfg.seed, cfg.workers)
    })
}

/// The latest readable checkpoint in `dir`, if any. An unreadable one is
/// reported and ignored: the run starts fresh.
fn load_checkpoint(dir: &Path, seed: u64) -> Option<TrainCheckpoint> {
    let path = match latest_in(dir) {
        Ok(path) => path?,
        Err(e) => {
            eprintln!("fae: cannot scan checkpoint dir: {e}; starting fresh");
            return None;
        }
    };
    match TrainCheckpoint::load(&path) {
        Ok(ck) => {
            assert_eq!(
                ck.config_seed,
                seed,
                "checkpoint {} was written by a run with seed {}, not {}",
                path.display(),
                ck.config_seed,
                seed
            );
            Some(ck)
        }
        Err(e) => {
            eprintln!(
                "fae: ignoring unreadable checkpoint {}: {e}; starting fresh",
                path.display()
            );
            None
        }
    }
}

/// The FAE training loop, generic over the step executor: pass the
/// in-process [`ParallelEngine`] (what [`train_fae_resilient`] does) or
/// a networked engine that fans shards out to worker processes. The
/// closure receives the freshly built (or checkpoint-restored) model and
/// must wrap it as replica 0.
pub fn train_fae_with_engine<En, F>(
    spec: &WorkloadSpec,
    pre: &Preprocessed,
    test: &Dataset,
    cfg: &TrainConfig,
    opts: &ResilienceOptions,
    make_engine: F,
) -> TrainReport
where
    En: StepEngine,
    F: FnOnce(AnyModel) -> En,
{
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = AnyModel::from_spec(spec, &mut rng);
    // The tiered constructor draws the RNG in the same order as the
    // untiered one, so the model stream and the hot rows are bit-identical
    // either way; only cold rows differ (quantized at init, never
    // materialized in f32).
    let mut master = if cfg.quantize_cold {
        MasterEmbeddings::from_spec_tiered(spec, &pre.partitions, &mut rng)
    } else {
        MasterEmbeddings::from_spec(spec, &mut rng)
    };
    let resumed = opts
        .checkpoint_dir
        .as_deref()
        .filter(|_| opts.resume)
        .and_then(|dir| load_checkpoint(dir, cfg.seed));
    let mut scheduler = match &resumed {
        Some(ck) => {
            model.read_params(&ck.dense_params);
            master = ck.restore_master();
            if cfg.quantize_cold {
                master.quantize_cold_tier(&pre.partitions);
            }
            ShuffleScheduler::from_state(&ck.scheduler)
        }
        None => ShuffleScheduler::new(Rate::new(cfg.initial_rate)),
    };
    let telem = opts.telemetry.clone();
    scheduler.set_telemetry(telem.clone());

    // The execution engine owns the model replicas from here on. A
    // checkpoint restore above only touched replica 0, so re-broadcast
    // its parameters before the first step.
    let mut engine = make_engine(model);
    engine.broadcast_params();
    engine.set_telemetry(telem.clone());
    if resumed.is_some() {
        engine.on_master_restored(&master);
    }

    let mut hot = HotEmbeddings::build(&master, pre.partitions.to_vec());
    hot.set_telemetry(telem.clone());
    let hot_bytes = hot.hot_bytes() as f64;
    let gpus = resumed.as_ref().map_or(cfg.num_gpus.max(1), |ck| ck.gpus_active as usize);
    let costs = CostModel::new(bridge::profile_for(spec, hot_bytes), gpus, hot.sync_bytes() as f64);
    let test_batches = make_test_batches(test, cfg.minibatch_size, cfg.eval_batches);
    let mut run = Run::new(cfg, opts, engine, master, costs, test_batches);
    run.hot = Some(hot);
    run.hot_bytes = hot_bytes;
    run.partitions = &pre.partitions;
    run.skip = (cfg.stale_skip > 0.0).then(|| {
        DeferredSparse::new(run.master.num_tables(), run.master.dim(), cfg.stale_skip, cfg.lr)
    });
    run.oracle_batches = (cfg.lookahead > 0).then(|| Arc::new(pre.hot_batches.clone()));
    if let Some(ck) = &resumed {
        run.restore(ck);
    }

    telem.emit(&JournalEvent::RunStart {
        workload: spec.name.clone(),
        seed: cfg.seed,
        num_gpus: gpus,
        workers: run.engine.workers(),
        epochs: cfg.epochs,
        minibatch_size: cfg.minibatch_size,
        initial_rate: cfg.initial_rate,
        lookahead: cfg.lookahead as u64,
        stale_skip: cfg.stale_skip as f64,
    });
    telem.gauge_set("train.gpus_active", gpus as f64);
    match &resumed {
        Some(ck) if telem.enabled() => {
            telem.emit(&JournalEvent::Recovery {
                step: ck.steps,
                action: "resumed-from-checkpoint".into(),
                detail: format!("replaying from step {}", ck.steps),
            });
            // The checkpoint carried simulated time accumulated before the
            // resume; journal it so the sums-to-total invariant holds for
            // resumed runs too.
            telem.emit(&JournalEvent::Charge {
                step: ck.steps,
                label: "resumed-prior-timeline".into(),
                phases: PhaseSeconds::delta(&Timeline::new(), &ck.timeline),
            });
            telem.counter_add("train.resumes", 1);
        }
        Some(_) => {}
        None => run.replicate(),
    }

    let n_hot = pre.hot_batches.len();
    let n_cold = pre.cold_batches.len();
    let start_epoch = resumed.as_ref().map_or(0, |ck| ck.epoch as usize);
    let mut cursors = resumed.map(|ck| (ck.hot_cursor as usize, ck.cold_cursor as usize));
    let mut rounds_done = 0usize;

    'epochs: for epoch in start_epoch..cfg.epochs {
        // Each epoch's order comes from a derived seed (see
        // `shuffle_seed`), so a resumed run regenerates it exactly.
        let mut ep_rng = StdRng::seed_from_u64(shuffle_seed(cfg.seed, epoch));
        let mut hot_order: Vec<usize> = (0..n_hot).collect();
        let mut cold_order: Vec<usize> = (0..n_cold).collect();
        hot_order.shuffle(&mut ep_rng);
        cold_order.shuffle(&mut ep_rng);
        let (mut hp, mut cp) = cursors.take().unwrap_or((0, 0));
        run.start_epoch(&hot_order, hp);

        // §III-C: "The scheduler always begins with training on cold
        // inputs", then alternates rate-sized blocks.
        while hp < n_hot || cp < n_cold {
            run.start_round();
            let rate = scheduler.rate();
            // Cold block on the CPU master tables.
            if cp < n_cold {
                let k = rate.block_len(n_cold).min(n_cold - cp);
                for &b in &cold_order[cp..cp + k] {
                    if run.step(&pre.cold_batches[b], StepMode::Cold, rate.pct()) {
                        break 'epochs;
                    }
                }
                cp += k;
            }
            // Hot block on the replicated GPU bags, bracketed by syncs. A
            // run degraded to CPU-only still trains the hot inputs — on
            // the master tables at hybrid cost, with no sync traffic.
            if hp < n_hot {
                let k = rate.block_len(n_hot).min(n_hot - hp);
                run.refresh(k);
                for (j, &b) in hot_order[hp..hp + k].iter().enumerate() {
                    let mb = &pre.hot_batches[b];
                    run.prefetch(j, k, mb.len());
                    if run.step(mb, StepMode::Hot, rate.pct()) {
                        break 'epochs;
                    }
                }
                hp += k;
                run.write_back();
            }
            // Evaluate on the (synchronised) master copy and adapt.
            run.eval_round(Some(&mut scheduler));
            rounds_done += 1;
            if let Some(dir) = &opts.checkpoint_dir {
                if opts.checkpoint_every_rounds > 0
                    && rounds_done.is_multiple_of(opts.checkpoint_every_rounds)
                {
                    run.checkpoint(dir, epoch, (hp, cp), scheduler.state());
                }
            }
        }
    }

    let train_sample: Vec<MiniBatch> = pre
        .hot_batches
        .iter()
        .take(cfg.eval_batches / 2 + 1)
        .chain(pre.cold_batches.iter().take(cfg.eval_batches / 2 + 1))
        .cloned()
        .collect();
    run.finish(Some(scheduler.rate().pct()), &train_sample)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrator::Calibrator;
    use crate::classifier::classify_tables;
    use crate::input_processor::{preprocess_inputs, PreprocessConfig};
    use fae_data::{generate, GenOptions};

    fn small_run() -> (WorkloadSpec, Dataset, Dataset, Preprocessed, TrainConfig) {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(77, 6_000));
        let (train, test) = ds.split(0.2);
        let cal = Calibrator::default().calibrate(&train);
        // Force partial hotness: recalibrate table cutoffs so cold inputs
        // exist even though tiny tables are all under 1 MB.
        let all: Vec<usize> = (0..train.len()).collect();
        let counters = crate::calibrator::log_accesses(&train, &all);
        let mut cal2 = cal;
        for (t, tc) in cal2.tables.iter_mut().enumerate() {
            tc.de_facto_hot = false;
            tc.cutoff = (counters[t].total() / counters[t].rows() as u64).max(2);
        }
        let parts = classify_tables(&spec, &counters, &cal2);
        let pre =
            preprocess_inputs(&train, parts, &PreprocessConfig { minibatch_size: 64, seed: 5 });
        let cfg = TrainConfig { epochs: 1, minibatch_size: 64, ..Default::default() };
        (spec, train, test, pre, cfg)
    }

    #[test]
    fn baseline_trains_and_reports() {
        let (spec, train, test, _, cfg) = small_run();
        let r = train_baseline(&spec, &train, &test, &cfg);
        assert_eq!(r.cold_steps, train.len().div_ceil(64));
        assert_eq!(r.hot_steps, 0);
        assert!(r.simulated_seconds > 0.0);
        assert!(r.final_test.accuracy > 0.5, "accuracy {}", r.final_test.accuracy);
        assert!(!r.history.is_empty());
        assert!(r.avg_gpu_power_w > 50.0);
        assert!(r.faults.is_empty() && r.recoveries.is_empty() && !r.interrupted);
    }

    #[test]
    fn fae_trains_matches_baseline_accuracy_and_is_faster() {
        let (spec, train, test, pre, cfg) = small_run();
        assert!(!pre.hot_batches.is_empty(), "need hot batches for this test");
        assert!(!pre.cold_batches.is_empty(), "need cold batches for this test");
        let base = train_baseline(&spec, &train, &test, &cfg);
        let fae = train_fae(&spec, &pre, &test, &cfg);
        assert!(fae.hot_steps > 0 && fae.cold_steps > 0);
        assert!(fae.transitions >= 2);
        // Accuracy parity (Table III): within 3 points on this tiny run.
        assert!(
            (fae.final_test.accuracy - base.final_test.accuracy).abs() < 0.03,
            "accuracy diverged: fae {} vs base {}",
            fae.final_test.accuracy,
            base.final_test.accuracy
        );
        // Speed: FAE's simulated time must beat the baseline's.
        assert!(
            fae.simulated_seconds < base.simulated_seconds,
            "fae {}s !< baseline {}s",
            fae.simulated_seconds,
            base.simulated_seconds
        );
        assert!(fae.final_rate.is_some());
    }

    #[test]
    fn fae_with_no_hot_batches_degenerates_to_baseline_schedule() {
        let (spec, _train, test, mut pre, cfg) = small_run();
        pre.cold_batches.extend(pre.hot_batches.drain(..).map(|mut b| {
            b.kind = BatchKind::Cold;
            b
        }));
        let r = train_fae(&spec, &pre, &test, &cfg);
        assert_eq!(r.hot_steps, 0);
        assert!(r.cold_steps > 0);
    }

    #[test]
    fn more_gpus_at_fixed_tiny_batch_only_adds_coordination_cost() {
        // Holding the (tiny) batch fixed, extra GPUs cannot help — they
        // only add per-step coordination overhead, charged to AllReduce.
        // (The real weak-scaling sweep lives in the fig13 harness, where
        // the batch grows with the GPU count.)
        let (spec, _train, test, pre, mut cfg) = small_run();
        let r1 = train_fae(&spec, &pre, &test, &cfg);
        cfg.num_gpus = 4;
        let r4 = train_fae(&spec, &pre, &test, &cfg);
        assert!(r4.simulated_seconds > r1.simulated_seconds);
        let extra = r4.simulated_seconds - r1.simulated_seconds;
        let allreduce_delta = r4.timeline.get(fae_sysmodel::Phase::AllReduce)
            - r1.timeline.get(fae_sysmodel::Phase::AllReduce);
        assert!(
            allreduce_delta > 0.6 * extra,
            "coordination cost should dominate the 4-GPU overhead: {allreduce_delta} of {extra}"
        );
    }

    #[test]
    fn quantized_cold_tier_matches_f32_accuracy() {
        // Fig 12-style parity: the int8 cold tier must not cost accuracy.
        // Hot rows are exact f32 in both runs; only cold rows carry
        // quantization error, bounded by half an affine step per touch.
        let (spec, _train, test, pre, cfg) = small_run();
        let f32_run = train_fae(&spec, &pre, &test, &cfg);
        let q_cfg = TrainConfig { quantize_cold: true, ..cfg };
        let q_run = train_fae(&spec, &pre, &test, &q_cfg);
        assert!(
            (q_run.final_test.accuracy - f32_run.final_test.accuracy).abs() < 0.02,
            "quantized accuracy diverged: {} vs {}",
            q_run.final_test.accuracy,
            f32_run.final_test.accuracy
        );
        // The simulated schedule does not depend on the numeric tier.
        assert_eq!(q_run.hot_steps, f32_run.hot_steps);
        assert_eq!(q_run.cold_steps, f32_run.cold_steps);
    }

    #[test]
    fn same_seed_runs_are_bit_identical() {
        let (spec, _train, test, pre, cfg) = small_run();
        let a = train_fae(&spec, &pre, &test, &cfg);
        let b = train_fae(&spec, &pre, &test, &cfg);
        assert_eq!(a.final_test.loss.to_bits(), b.final_test.loss.to_bits());
        assert_eq!(a.simulated_seconds.to_bits(), b.simulated_seconds.to_bits());
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn explicit_zero_lookahead_and_skip_reproduce_the_seed_trainer() {
        // The seed-trainer contract: `--lookahead 0 --stale-skip 0` must
        // be the defaults, byte for byte — same digest, same cost.
        let (spec, _train, test, pre, cfg) = small_run();
        let base = train_fae(&spec, &pre, &test, &cfg);
        let zeroed = TrainConfig { lookahead: 0, stale_skip: 0.0, ..cfg };
        let z = train_fae(&spec, &pre, &test, &zeroed);
        assert_eq!(z.model_digest, base.model_digest);
        assert_eq!(z.simulated_seconds.to_bits(), base.simulated_seconds.to_bits());
        assert_eq!(z.skip, SkipStats::default());
        assert_eq!(z.oracle, OracleStats::default());
    }

    #[test]
    fn lookahead_changes_transfer_costs_but_not_numerics() {
        // The oracle's core guarantee: the master is frozen during a hot
        // block, so partial syncs read/write exactly the bytes the full
        // syncs would — any K gives the digest of K = 0; only the moved
        // bytes (and thus EmbedSync seconds) shrink.
        let (spec, _train, test, pre, cfg) = small_run();
        let full = train_fae(&spec, &pre, &test, &cfg);
        for k in [1usize, 4, 64] {
            let la = TrainConfig { lookahead: k, ..cfg.clone() };
            let r = train_fae(&spec, &pre, &test, &la);
            assert_eq!(r.model_digest, full.model_digest, "digest changed at K={k}");
            assert_eq!(r.hot_steps, full.hot_steps);
            assert_eq!(r.final_test.loss.to_bits(), full.final_test.loss.to_bits());
            assert_eq!(r.oracle.misses, 0, "exact oracle must never demand-fetch (K={k})");
            assert!(r.oracle.hits > 0);
            assert!(r.oracle.prefetched_rows > 0);
            assert!(
                r.oracle.moved_bytes < r.oracle.full_bytes,
                "partial syncs should move fewer bytes: {} vs {} (K={k})",
                r.oracle.moved_bytes,
                r.oracle.full_bytes
            );
            // Simulated time only wins once K covers the block: the sync
            // *count* then matches the full path while the bytes shrink.
            // Small K on a tiny bag trades bytes for per-transfer latency
            // (many small PCIe fetches) and can honestly lose.
            if k >= 64 {
                assert!(
                    r.simulated_seconds < full.simulated_seconds,
                    "block-covering lookahead must be cheaper: {} vs {} (K={k})",
                    r.simulated_seconds,
                    full.simulated_seconds
                );
            }
        }
    }

    #[test]
    fn stale_skip_defers_updates_and_keeps_accuracy() {
        // Fig 12-style parity for the stale-skip mode at the default
        // CLI threshold: deferred + dropped cold updates must not cost
        // accuracy beyond noise.
        let (spec, _train, test, pre, cfg) = small_run();
        let eager = train_fae(&spec, &pre, &test, &cfg);
        let skip_cfg = TrainConfig { stale_skip: 1e-4, ..cfg };
        let s = train_fae(&spec, &pre, &test, &skip_cfg);
        assert!(s.skip.deferred > 0, "threshold 1e-4 should defer some cold rows");
        assert!(
            s.skip.flushed_threshold + s.skip.flushed_access + s.skip.dropped > 0,
            "deferred rows must eventually flush or drop"
        );
        assert!(
            (s.final_test.accuracy - eager.final_test.accuracy).abs() < 0.02,
            "stale-skip accuracy diverged: {} vs {}",
            s.final_test.accuracy,
            eager.final_test.accuracy
        );
        // Skipping sparse-optimizer work can only shrink simulated time.
        assert!(s.simulated_seconds <= eager.simulated_seconds);
    }

    #[test]
    fn stale_skip_checkpoint_resume_stays_bit_identical() {
        // flush-on-checkpoint: a run killed mid-stream and resumed must
        // reproduce the uninterrupted checkpointed run bit for bit.
        let dir = std::env::temp_dir().join("fae-trainer-skip-resume");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create ckpt dir");
        let (spec, _train, test, pre, cfg) = small_run();
        let skip_cfg = TrainConfig { stale_skip: 1e-4, ..cfg };
        let opts_full = ResilienceOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every_rounds: 1,
            ..Default::default()
        };
        let full = train_fae_resilient(&spec, &pre, &test, &skip_cfg, &opts_full);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("recreate ckpt dir");
        let halted = train_fae_resilient(
            &spec,
            &pre,
            &test,
            &skip_cfg,
            &ResilienceOptions {
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every_rounds: 1,
                halt_after_steps: Some(30),
                ..Default::default()
            },
        );
        assert!(halted.interrupted);
        let resumed = train_fae_resilient(
            &spec,
            &pre,
            &test,
            &skip_cfg,
            &ResilienceOptions {
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every_rounds: 1,
                resume: true,
                ..Default::default()
            },
        );
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(resumed.model_digest, full.model_digest);
        assert_eq!(resumed.final_test.loss.to_bits(), full.final_test.loss.to_bits());
    }

    #[test]
    fn lookahead_and_skip_compose() {
        let (spec, _train, test, pre, cfg) = small_run();
        let combo = TrainConfig { lookahead: 4, stale_skip: 1e-4, ..cfg.clone() };
        let plain = train_fae(&spec, &pre, &test, &cfg);
        let r = train_fae(&spec, &pre, &test, &combo);
        assert!(r.skip.deferred > 0 && r.oracle.prefetched_rows > 0);
        assert_eq!(r.oracle.misses, 0);
        assert!(r.simulated_seconds < plain.simulated_seconds);
        assert!((r.final_test.accuracy - plain.final_test.accuracy).abs() < 0.02);
    }

    #[test]
    fn halt_after_steps_interrupts_mid_run() {
        let (spec, _train, test, pre, cfg) = small_run();
        let opts = ResilienceOptions { halt_after_steps: Some(10), ..Default::default() };
        let r = train_fae_resilient(&spec, &pre, &test, &cfg, &opts);
        assert!(r.interrupted);
        assert_eq!(r.hot_steps + r.cold_steps, 10);
    }
}
