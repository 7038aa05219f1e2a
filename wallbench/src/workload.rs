//! The three benchmark workloads: what each runs, at which size, and the
//! outputs pinned for the default seed.

use fae_core::{CalibratorConfig, PreprocessConfig, TrainConfig};
use fae_data::WorkloadSpec;

/// The seed whose outputs are pinned in [`pinned`]. Any other seed is a
/// held-out seed: its runs are checked for repeat-equality only.
pub const DEFAULT_SEED: u64 = 1;

/// Mini-batch size of every training and replay step.
pub const MINIBATCH: usize = 256;

/// Share of the generated inputs held out for evaluation and serving.
pub const TEST_FRACTION: f64 = 0.15;

/// The serving load's offered rate, as a share of the engine's estimated
/// capacity: busy enough to fill batches, far enough from saturation that
/// no request is refused.
pub const SERVE_LOAD: f64 = 0.7;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// DLRM on the Kaggle-shaped tables: dense-bound training.
    KaggleTrain,
    /// TBSM on the Taobao-shaped tables: embedding- and overhead-bound
    /// training, ~1 ms steps.
    TaobaoTrain,
    /// Forward-only serving of the Kaggle-shaped DLRM.
    KaggleServe,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::KaggleTrain, Workload::TaobaoTrain, Workload::KaggleServe];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KaggleTrain => "kaggle-train",
            Workload::TaobaoTrain => "taobao-train",
            Workload::KaggleServe => "kaggle-serve",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload serves instead of training.
    pub fn is_serve(self) -> bool {
        self == Workload::KaggleServe
    }

    /// The model and table shapes.
    pub fn spec(self) -> WorkloadSpec {
        match self {
            Workload::KaggleTrain | Workload::KaggleServe => WorkloadSpec::rmc2_kaggle(),
            Workload::TaobaoTrain => WorkloadSpec::rmc1_taobao(),
        }
    }
}

/// How much work one run does.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Generated inputs, before the test split.
    pub inputs: usize,
    /// Epochs per training run.
    pub epochs: usize,
    /// Requests per serving run.
    pub requests: usize,
}

impl Size {
    /// The size the benchmark measures.
    pub fn full(w: Workload) -> Self {
        match w {
            Workload::KaggleTrain => Size { inputs: 45_000, epochs: 1, requests: 10_000 },
            Workload::TaobaoTrain => Size { inputs: 40_000, epochs: 4, requests: 50_000 },
            Workload::KaggleServe => Size { inputs: 60_000, epochs: 1, requests: 20_000 },
        }
    }

    /// A size small enough for the benchmark's own tests.
    pub fn smoke(w: Workload) -> Self {
        match w {
            Workload::KaggleTrain | Workload::KaggleServe => {
                Size { inputs: 4_000, epochs: 1, requests: 400 }
            }
            Workload::TaobaoTrain => Size { inputs: 4_000, epochs: 2, requests: 400 },
        }
    }
}

/// The calibrator settings of the repository's training benchmarks: a
/// GPU budget of an eighth of the tables, 8 KiB de-facto-hot tables.
pub fn calibrator_config(spec: &WorkloadSpec) -> CalibratorConfig {
    CalibratorConfig {
        gpu_budget_bytes: spec.embedding_bytes() / 8,
        small_table_bytes: 8 << 10,
        ..Default::default()
    }
}

/// Batch packing of the input processor.
pub fn preprocess_config() -> PreprocessConfig {
    PreprocessConfig { minibatch_size: MINIBATCH, seed: 7 }
}

/// The training configuration at `workers` threads, on two simulated GPUs.
pub fn train_config(size: Size, workers: usize) -> TrainConfig {
    TrainConfig {
        epochs: size.epochs,
        minibatch_size: MINIBATCH,
        num_gpus: 2,
        workers,
        ..Default::default()
    }
}

/// Per mode, the signature the default seed must reproduce at full size.
/// A change to the arithmetic of training or serving changes these; it
/// must then say so and re-pin them.
pub fn pinned(w: Workload) -> &'static [(&'static str, &'static str)] {
    match w {
        Workload::KaggleTrain => &[
            ("setup", "batches=150 hot_fraction=0.6855947712418301"),
            ("fae", "digest=2b32280e test_loss=0.6655753552913666 sim_s=2.51557821053615"),
            ("fae_w2", "digest=2815cc32 test_loss=0.6655753552913666 sim_s=2.51557821053615"),
            ("baseline", "digest=0f7174a6 test_loss=0.6654689311981201 sim_s=3.5451048530699967"),
            (
                "serve",
                "completed=10000 rejected=0 mean_score=0.5332275304883719 p99_ms=0.5987450462484525",
            ),
        ],
        Workload::TaobaoTrain => &[
            ("setup", "batches=134 hot_fraction=0.739"),
            ("fae", "digest=a3932750 test_loss=0.5381381809711456 sim_s=42.794652319917375"),
            ("fae_w2", "digest=ad52790c test_loss=0.538138173520565 sim_s=42.794652319917375"),
            ("baseline", "digest=d7701d26 test_loss=0.5384114384651184 sim_s=85.84334135957245"),
            (
                "serve",
                "completed=50000 rejected=0 mean_score=0.46778423383057116 p99_ms=0.37255810188684124",
            ),
        ],
        Workload::KaggleServe => &[
            ("setup", "hot_rows=4166"),
            ("fae", "completed=20000 rejected=0 mean_score=0.5335453453883529 p99_ms=0.8617779616524601"),
            ("fae_w2", "completed=20000 rejected=0 mean_score=0.5335453453883529 p99_ms=0.5961483515008054"),
            ("baseline", "completed=20000 rejected=0 mean_score=0.5335453453883529 p99_ms=0.8770522142241"),
        ],
    }
}
