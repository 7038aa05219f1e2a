//! Golden pins for the training step path.
//!
//! Every other trainer test compares a run with a second run of the same
//! code, so a change that moves both runs the same way passes them. These
//! tests pin the absolute outcome of each training mode on the tiny
//! workload instead: the model digest, the simulated seconds and the
//! final test loss as raw bits, and a CRC-32 of the journal's JSONL
//! bytes. A refactor of the step path must leave every value unchanged;
//! a deliberate change to the arithmetic re-pins them.

use std::fs;
use std::path::{Path, PathBuf};

use fae::core::input_processor::{PreprocessConfig, Preprocessed};
use fae::core::{
    pipeline, train_baseline, train_fae_resilient, CalibratorConfig, FaultPlan, ResilienceOptions,
    Telemetry, TrainConfig, TrainReport,
};
use fae::data::codec::crc32;
use fae::data::{generate, Dataset, GenOptions, WorkloadSpec};

/// What one run is pinned to: `(model_digest, simulated_seconds bits,
/// final test loss bits, journal CRC-32)`. Runs without a journal pin
/// `None` for the last field.
type Pins = (u32, u64, u64, Option<u32>);

struct Inputs {
    spec: WorkloadSpec,
    train: Dataset,
    test: Dataset,
    pre: Preprocessed,
}

/// The tiny workload with a shrunken GPU budget, so the calibrator
/// produces both hot and cold batches, and two epochs, so rounds,
/// faults and checkpoints land mid-stream.
fn inputs() -> Inputs {
    let spec = WorkloadSpec::tiny_test();
    let (train, test) = generate(&spec, &GenOptions::sized(4242, 6_000)).split(0.2);
    let calibrator = CalibratorConfig {
        gpu_budget_bytes: 40 << 10,
        small_table_bytes: 2 << 10,
        ..Default::default()
    };
    let pre =
        pipeline::prepare(&train, calibrator, &PreprocessConfig { minibatch_size: 64, seed: 9 })
            .preprocessed;
    assert!(!pre.hot_batches.is_empty() && !pre.cold_batches.is_empty());
    Inputs { spec, train, test, pre }
}

fn config() -> TrainConfig {
    TrainConfig { epochs: 2, minibatch_size: 64, eval_interval: 20, ..Default::default() }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fae-golden-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs FAE with a file journal at `journal` and returns the report
/// with the journal's CRC-32.
fn fae_journalled(
    io: &Inputs,
    cfg: &TrainConfig,
    opts: ResilienceOptions,
    journal: &Path,
) -> (TrainReport, u32) {
    let telemetry = Telemetry::builder().journal_path(journal).try_build().expect("telemetry");
    let report = train_fae_resilient(
        &io.spec,
        &io.pre,
        &io.test,
        cfg,
        &ResilienceOptions { telemetry, ..opts },
    );
    let bytes = fs::read(journal).expect("journal written");
    (report, crc32(&bytes))
}

/// CRC-32 of the evaluation history's debug rendering (every field,
/// floats in round-trip form). The baseline writes no journal, so this
/// is what pins its evaluation cadence.
fn history_crc(r: &TrainReport) -> u32 {
    crc32(format!("{:?}", r.history).as_bytes())
}

fn pins(r: &TrainReport, journal: Option<u32>) -> Pins {
    (r.model_digest, r.simulated_seconds.to_bits(), r.final_test.loss.to_bits(), journal)
}

fn fae_case(name: &str, cfg: TrainConfig, opts: ResilienceOptions) -> Pins {
    let dir = temp_dir(name);
    let (r, crc) = fae_journalled(&inputs(), &cfg, opts, &dir.join("run.jsonl"));
    fs::remove_dir_all(&dir).ok();
    pins(&r, Some(crc))
}

#[test]
fn baseline_single_worker() {
    let io = inputs();
    let r = train_baseline(&io.spec, &io.train, &io.test, &config());
    assert_eq!(pins(&r, None), (3621811566, 4611094067855229741, 4603796183234641920, None));
    assert_eq!(history_crc(&r), 2085891092);
}

#[test]
fn baseline_two_workers() {
    let io = inputs();
    let r = train_baseline(&io.spec, &io.train, &io.test, &TrainConfig { workers: 2, ..config() });
    assert_eq!(pins(&r, None), (754184499, 4611094067855229741, 4603796183100424192, None));
    assert_eq!(history_crc(&r), 2398938228);
}

#[test]
fn fae_single_worker() {
    assert_eq!(
        fae_case("w1", config(), ResilienceOptions::default()),
        (2468059209, 4610683616002163883, 4603767403061444608, Some(2299485125))
    );
}

#[test]
fn fae_two_workers() {
    let cfg = TrainConfig { workers: 2, ..config() };
    assert_eq!(
        fae_case("w2", cfg, ResilienceOptions::default()),
        (2543360980, 4610683616002163883, 4603767402927226880, Some(65583349))
    );
}

#[test]
fn fae_lookahead() {
    let cfg = TrainConfig { lookahead: 3, ..config() };
    assert_eq!(
        fae_case("lookahead", cfg, ResilienceOptions::default()),
        (2468059209, 4610683607018983826, 4603767403061444608, Some(3609616831))
    );
}

#[test]
fn fae_stale_skip() {
    let cfg = TrainConfig { stale_skip: 1e-4, ..config() };
    assert_eq!(
        fae_case("skip", cfg, ResilienceOptions::default()),
        (2925837829, 4610678672526060759, 4603767407087976448, Some(3748353438))
    );
}

#[test]
fn fae_quantized_cold_tier() {
    let cfg = TrainConfig { quantize_cold: true, ..config() };
    assert_eq!(
        fae_case("quant", cfg, ResilienceOptions::default()),
        (2150038570, 4610683616002163883, 4603767723573379072, Some(2023951041))
    );
}

#[test]
fn fae_device_loss_and_sync_failure() {
    // Two GPUs: the first loss shrinks to one, the second falls back to
    // CPU-only execution, so hot batches then train on the master tier.
    let cfg = TrainConfig { num_gpus: 2, ..config() };
    let plan = FaultPlan::parse_seeded("sync-failure@30,device-loss@60,device-loss@100", 11);
    let opts = ResilienceOptions { plan: plan.expect("plan"), ..Default::default() };
    assert_eq!(
        fae_case("faults", cfg, opts),
        (2468059209, 4613393825732145532, 4603767403061444608, Some(3153954479))
    );
}

#[test]
fn fae_replication_oom_and_checkpoint_io() {
    let dir = temp_dir("oom-ckpt");
    let plan = FaultPlan::parse_seeded("transient-io@10,replication-oom@50", 5).expect("plan");
    let opts = ResilienceOptions {
        plan,
        checkpoint_dir: Some(dir.join("ckpt")),
        checkpoint_every_rounds: 2,
        ..Default::default()
    };
    let (r, crc) = fae_journalled(&inputs(), &config(), opts, &dir.join("run.jsonl"));
    fs::remove_dir_all(&dir).ok();
    assert_eq!(
        pins(&r, Some(crc)),
        (2468059209, 4611619987313482050, 4603767403061444608, Some(689540509))
    );
}

#[test]
fn fae_halted_then_resumed_from_checkpoint() {
    let io = inputs();
    let dir = temp_dir("resume");
    let cfg = TrainConfig { stale_skip: 1e-4, ..config() };
    let ckpt = ResilienceOptions {
        checkpoint_dir: Some(dir.join("ckpt")),
        checkpoint_every_rounds: 3,
        ..Default::default()
    };
    let halt = ResilienceOptions { halt_after_steps: Some(70), ..ckpt.clone() };
    let (halted, halted_crc) = fae_journalled(&io, &cfg, halt, &dir.join("halted.jsonl"));
    assert!(halted.interrupted);
    let resume = ResilienceOptions { resume: true, ..ckpt };
    let (resumed, resumed_crc) = fae_journalled(&io, &cfg, resume, &dir.join("resumed.jsonl"));
    fs::remove_dir_all(&dir).ok();
    assert!(!resumed.interrupted);
    assert_eq!(
        pins(&halted, Some(halted_crc)),
        (1757006910, 4605553002061462222, 4604169223156006912, Some(4169555496))
    );
    assert_eq!(
        pins(&resumed, Some(resumed_crc)),
        (289440015, 4610675266876213694, 4603767407087976448, Some(1124185739))
    );
}
