//! One-call pipelines assembling the full FAE flow of Fig 5:
//! generate/load data → calibrate → classify → preprocess → train —
//! plus the double-buffered mini-batch [`Prefetcher`] that decodes the
//! next FAE-format block on a background thread while the consumer
//! works on the current one.

use std::sync::mpsc;
use std::thread;

use fae_data::codec::CodecError;
use fae_data::format::FaeStreamReader;
use fae_data::{Dataset, MiniBatch, WorkloadSpec};
use fae_telemetry::Telemetry;

use crate::calibrator::{
    log_accesses, sample_inputs, CalibrationResult, Calibrator, CalibratorConfig,
};
use crate::classifier::classify_tables;
use crate::input_processor::{preprocess_inputs, PreprocessConfig, Preprocessed};
use crate::trainer::{train_baseline, train_fae, TrainConfig, TrainReport};

/// How many produced items may sit decoded-but-unconsumed: one being
/// consumed, one ready — classic double buffering. A deeper queue only
/// buys memory pressure; a producer more than one block ahead is already
/// never the bottleneck.
pub const PREFETCH_DEPTH: usize = 2;

/// A double-buffered background producer.
///
/// The producer closure runs on its own thread and pushes items into a
/// bounded channel of depth [`PREFETCH_DEPTH`]; the consumer pulls them
/// off via [`Iterator`]. Production therefore overlaps consumption while
/// staying at most two items ahead. Items arrive in exactly the order
/// produced, so wrapping a deterministic producer keeps a deterministic
/// stream. Dropping the prefetcher disconnects the channel, which stops
/// the producer at its next send; the thread is then joined, so no
/// producer outlives its consumer. A producer that *panicked* ends the
/// stream just like a clean finish — indistinguishable at the channel —
/// so the join result is checked and the panic resurfaces on drop
/// rather than being swallowed as a short stream.
pub struct Prefetcher<T: Send + 'static> {
    rx: Option<mpsc::Receiver<T>>,
    join: Option<thread::JoinHandle<()>>,
}

impl<T: Send + 'static> Prefetcher<T> {
    /// Spawns `produce` on a background thread. The closure sends items
    /// through the bounded channel (blocking while the consumer is
    /// [`PREFETCH_DEPTH`] items behind) and returns when done — or when a
    /// send fails, which means the consumer hung up. Errs if the OS
    /// refuses to spawn the thread.
    pub fn spawn<F>(produce: F) -> std::io::Result<Self>
    where
        F: FnOnce(&mpsc::SyncSender<T>) + Send + 'static,
    {
        let (tx, rx) = mpsc::sync_channel(PREFETCH_DEPTH);
        let join =
            thread::Builder::new().name("fae-prefetch".into()).spawn(move || produce(&tx))?;
        Ok(Self { rx: Some(rx), join: Some(join) })
    }
}

impl<T: Send + 'static> Iterator for Prefetcher<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.rx.as_ref()?.recv().ok()
    }
}

impl<T: Send + 'static> Drop for Prefetcher<T> {
    fn drop(&mut self) {
        // Disconnect first so a producer blocked on a full channel wakes
        // with a send error, *then* join — the other order deadlocks.
        drop(self.rx.take());
        if let Some(j) = self.join.take() {
            if let Err(payload) = j.join() {
                // The producer died mid-stream. To the consumer that
                // looked like a clean end-of-stream, so this is the only
                // place the failure can surface.
                if std::thread::panicking() {
                    // Propagating here would double-panic into an abort;
                    // the original unwind already reports a failure.
                    eprintln!("fae: prefetch producer panicked (suppressed during unwind)");
                } else {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

/// Opens a FAE container held in `bytes` and streams its mini-batches
/// off a background decoder thread, at most [`PREFETCH_DEPTH`] blocks
/// ahead of the consumer. The header is validated synchronously (a
/// corrupt or foreign file errors here, not mid-stream); body errors —
/// a torn batch, a bad checksum — surface as the `Err` item, after
/// which the stream ends. Returns the container's workload name and the
/// batch stream.
pub fn prefetch_fae_blocks(
    bytes: Vec<u8>,
) -> Result<(String, Prefetcher<Result<MiniBatch, CodecError>>), CodecError> {
    let workload = FaeStreamReader::open(&bytes)?.workload().to_string();
    let spawn = Prefetcher::spawn(move |tx| {
        let mut reader = match FaeStreamReader::open(&bytes) {
            Ok(r) => r,
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        };
        loop {
            match reader.next_batch() {
                Ok(Some(b)) => {
                    if tx.send(Ok(b)).is_err() {
                        return; // consumer hung up
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            }
        }
    });
    let pf = spawn.map_err(CodecError::Io)?;
    Ok((workload, pf))
}

/// Output of the static (one-time per dataset) half of the framework.
#[derive(Clone)]
pub struct StaticArtifacts {
    /// The calibrator's threshold decision.
    pub calibration: CalibrationResult,
    /// The preprocessed hot/cold mini-batch stream.
    pub preprocessed: Preprocessed,
}

/// Runs calibration, classification and input processing in one go.
pub fn prepare(
    train: &Dataset,
    calibrator_cfg: CalibratorConfig,
    pre_cfg: &PreprocessConfig,
) -> StaticArtifacts {
    prepare_with(train, calibrator_cfg, pre_cfg, &Telemetry::disabled())
}

/// [`prepare`] with a telemetry handle: every static-pipeline stage runs
/// under a span (`prepare/sample` → `prepare/log` → `prepare/converge` →
/// `prepare/classify` → `prepare/preprocess`) and the hot/cold split is
/// exported as counters and gauges.
pub fn prepare_with(
    train: &Dataset,
    calibrator_cfg: CalibratorConfig,
    pre_cfg: &PreprocessConfig,
    telemetry: &Telemetry,
) -> StaticArtifacts {
    let _span = telemetry.span("prepare");
    let calibrator = Calibrator::new(calibrator_cfg);
    let mut rng = rand::SeedableRng::seed_from_u64(calibrator.config.seed);
    let samples = {
        let _s = telemetry.span("prepare/sample");
        sample_inputs(train, calibrator.config.sample_rate, &mut rng)
    };
    let counters = {
        let _s = telemetry.span("prepare/log");
        log_accesses(train, &samples)
    };
    let mut calibration = {
        let _s = telemetry.span("prepare/converge");
        calibrator.converge(train, &counters, &mut rng)
    };
    calibration.sampled_inputs = samples.len();
    let partitions = {
        let _s = telemetry.span("prepare/classify");
        classify_tables(&train.spec, &counters, &calibration)
    };
    let preprocessed = {
        let _s = telemetry.span("prepare/preprocess");
        preprocess_inputs(train, partitions, pre_cfg)
    };
    telemetry.counter_add("calibrator.sampled_inputs", calibration.sampled_inputs as u64);
    telemetry.gauge_set("calibrator.threshold", calibration.threshold);
    telemetry.gauge_set("calibrator.est_hot_bytes", calibration.est_hot_bytes);
    telemetry.counter_add("preprocess.hot_batches", preprocessed.hot_batches.len() as u64);
    telemetry.counter_add("preprocess.cold_batches", preprocessed.cold_batches.len() as u64);
    telemetry.gauge_set("preprocess.hot_input_fraction", preprocessed.hot_input_fraction);
    StaticArtifacts { calibration, preprocessed }
}

/// End-to-end comparison: trains the same workload under the baseline and
/// under FAE, returning `(baseline, fae)` reports.
pub fn compare(
    spec: &WorkloadSpec,
    train: &Dataset,
    test: &Dataset,
    artifacts: &StaticArtifacts,
    cfg: &TrainConfig,
) -> (TrainReport, TrainReport) {
    let base = train_baseline(spec, train, test, cfg);
    let fae = train_fae(spec, &artifacts.preprocessed, test, cfg);
    (base, fae)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fae_data::format::FaeFile;
    use fae_data::{generate, BatchKind, GenOptions};

    #[test]
    fn prefetcher_preserves_order_and_completes() {
        let mut pf = Prefetcher::spawn(|tx| {
            for i in 0..100u32 {
                if tx.send(i).is_err() {
                    return;
                }
            }
        })
        .expect("spawn");
        let got: Vec<u32> = pf.by_ref().collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(pf.next().is_none(), "exhausted stream stays exhausted");
    }

    #[test]
    fn dropping_prefetcher_early_stops_the_producer() {
        // An unbounded producer: only the consumer hanging up stops it.
        let mut pf = Prefetcher::spawn(|tx| {
            let mut i = 0u64;
            while tx.send(i).is_ok() {
                i += 1;
            }
        })
        .expect("spawn");
        assert_eq!(pf.next(), Some(0));
        drop(pf); // must disconnect + join without deadlocking
    }

    #[test]
    fn producer_panic_resurfaces_at_drop_not_as_a_short_stream() {
        let mut pf = Prefetcher::spawn(|tx: &mpsc::SyncSender<u32>| {
            let _ = tx.send(1);
            panic!("producer exploded mid-stream");
        })
        .expect("spawn");
        assert_eq!(pf.next(), Some(1));
        assert_eq!(pf.next(), None, "the hangup itself just ends the stream");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(pf)));
        assert!(r.is_err(), "the producer's panic must resurface when the prefetcher drops");
    }

    #[test]
    fn prefetch_fae_blocks_matches_eager_decode() {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(11, 2_000));
        let ids: Vec<usize> = (0..ds.len()).collect();
        let batches: Vec<MiniBatch> =
            ids.chunks(64).map(|c| MiniBatch::gather(&ds, c, BatchKind::Hot)).collect();
        let bytes = FaeFile::new("tiny-test", batches.clone()).encode();

        let eager = FaeFile::decode(&bytes).expect("eager decode");
        let (workload, pf) = prefetch_fae_blocks(bytes.to_vec()).expect("open");
        assert_eq!(workload, "tiny-test");
        let streamed: Vec<MiniBatch> = pf.map(|r| r.expect("clean stream decodes")).collect();
        assert_eq!(streamed.len(), eager.batches.len());
        for (a, b) in streamed.iter().zip(&eager.batches) {
            assert_eq!(a.len(), b.len());
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.dense.as_slice(), b.dense.as_slice());
        }
    }

    #[test]
    fn prefetch_fae_blocks_rejects_garbage_header_synchronously() {
        assert!(prefetch_fae_blocks(vec![0u8; 16]).is_err());
    }

    #[test]
    fn prefetch_fae_blocks_surfaces_torn_body_as_err_item() {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(11, 1_000));
        let ids: Vec<usize> = (0..ds.len()).collect();
        let batches: Vec<MiniBatch> =
            ids.chunks(64).map(|c| MiniBatch::gather(&ds, c, BatchKind::Cold)).collect();
        let mut bytes = FaeFile::new("t", batches).encode().to_vec();
        let keep = bytes.len() - bytes.len() / 4;
        bytes.truncate(keep); // tear mid-body, past the header
        let (_, pf) = prefetch_fae_blocks(bytes).expect("header is intact");
        let items: Vec<_> = pf.collect();
        assert!(!items.is_empty());
        assert!(items.last().unwrap().is_err(), "tear must surface as an Err item");
        assert!(items[..items.len() - 1].iter().all(Result::is_ok));
    }

    #[test]
    fn prepare_produces_consistent_artifacts() {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(19, 8_000));
        let art = prepare(
            &ds,
            CalibratorConfig::default(),
            &PreprocessConfig { minibatch_size: 64, seed: 1 },
        );
        assert!(art.calibration.sampled_inputs > 0);
        assert_eq!(art.preprocessed.total_samples(), ds.len());
        assert_eq!(art.preprocessed.partitions.len(), spec.tables.len());
    }

    #[test]
    fn compare_runs_both_modes() {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(23, 4_000));
        let (train, test) = ds.split(0.25);
        let art = prepare(
            &train,
            CalibratorConfig::default(),
            &PreprocessConfig { minibatch_size: 64, seed: 2 },
        );
        let cfg = TrainConfig { epochs: 1, minibatch_size: 64, ..Default::default() };
        let (base, fae) = compare(&spec, &train, &test, &art, &cfg);
        assert!(base.simulated_seconds > 0.0);
        assert!(fae.simulated_seconds > 0.0);
        // Tiny tables are all de-facto hot, so FAE runs everything hot and
        // wins outright.
        assert!(fae.simulated_seconds < base.simulated_seconds);
    }
}
