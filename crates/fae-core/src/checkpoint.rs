//! Training checkpoints: everything needed to resume an interrupted FAE
//! run bit-identically to an uninterrupted one.
//!
//! A [`TrainCheckpoint`] snapshots, at a schedule-round boundary (the
//! point where the master embeddings are authoritative and the scheduler
//! has just adapted): the training position (epoch + hot/cold cursors),
//! the step counters, the dense model parameters, every master embedding
//! table, the [`ShuffleScheduler`](crate::ShuffleScheduler) state, the
//! accumulated [`Timeline`], the evaluation history and the fault/
//! recovery record. Together with the trainer's per-epoch *derived*
//! shuffle RNGs (`seed ⊕ f(epoch)` — no RNG state needs serialising),
//! this makes resumption exact: every subsequent mini-batch, eval and
//! cost charge replays identically.
//!
//! On disk the checkpoint is an FAE-style little-endian binary container
//! (`"FAEK"` magic, version, payload, CRC-32 trailer) built on
//! [`fae_data::codec`], and it is written with the codec's atomic
//! write-temp-then-rename, so a crash mid-write never leaves a torn file
//! that a resume could trip over. Decoding treats the bytes as
//! untrusted: the CRC is verified before any field is read, every read
//! is bounds-checked, and no count sizes an allocation the bytes do not
//! back. Corruption yields a [`CodecError`], never a panic.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use fae_data::codec::{crc32, unseal, write_atomic, CodecError, Reader, Writer};
use fae_embed::EmbeddingTable;
use fae_models::MasterEmbeddings;
use fae_nn::Tensor;
use fae_sysmodel::{Phase, Timeline};

use crate::faults::{FaultKind, InjectedFault, RecoveryAction};
use crate::scheduler::SchedulerState;
use crate::trainer::EvalPoint;

const MAGIC: &[u8; 4] = b"FAEK";
// Version 2 widened the eval-history record with the hot/cold step
// counters and cumulative simulated seconds `EvalPoint` now carries.
const VERSION: u32 = 2;
const FILE_PREFIX: &str = "ckpt-";
const FILE_SUFFIX: &str = ".faeck";

/// One master embedding table, flattened.
#[derive(Clone, Debug, PartialEq)]
pub struct TableSnapshot {
    /// Row count.
    pub rows: u32,
    /// Embedding dimension.
    pub dim: u32,
    /// `rows * dim` weights, row-major.
    pub weights: Vec<f32>,
}

/// Complete resumable training state at a schedule-round boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainCheckpoint {
    /// The run's `TrainConfig::seed` (resume refuses a mismatched seed).
    pub config_seed: u64,
    /// Epoch the cursors refer to.
    pub epoch: u32,
    /// Hot batches already issued this epoch.
    pub hot_cursor: u64,
    /// Cold batches already issued this epoch.
    pub cold_cursor: u64,
    /// Total training steps completed.
    pub steps: u64,
    /// Steps executed in pure-GPU hot mode.
    pub hot_steps: u64,
    /// Steps executed in hybrid (cold) mode.
    pub cold_steps: u64,
    /// Hot↔cold transitions charged so far.
    pub transitions: u64,
    /// GPUs still in the data-parallel group (after any device losses).
    pub gpus_active: u32,
    /// Whether the run has degraded to CPU-only cold execution.
    pub cold_only: bool,
    /// Shuffle-scheduler adaptive state.
    pub scheduler: SchedulerState,
    /// Phase-tagged simulated time accumulated so far.
    pub timeline: Timeline,
    /// Evaluation snapshots so far.
    pub history: Vec<EvalPoint>,
    /// Faults that fired before the checkpoint.
    pub faults: Vec<InjectedFault>,
    /// Recovery actions taken before the checkpoint.
    pub recoveries: Vec<RecoveryAction>,
    /// Flattened dense model parameters.
    pub dense_params: Vec<f32>,
    /// Master embedding tables.
    pub tables: Vec<TableSnapshot>,
}

impl TrainCheckpoint {
    /// Flattens the master embedding tables into snapshots. A quantized
    /// (tiered) master is snapshot *dequantized*: hot rows are exact, and
    /// cold rows carry the values of their int8 grid, so restoring and
    /// re-quantizing with the same partitions reproduces the tiered state
    /// to within one code step per element.
    pub fn snapshot_master(master: &MasterEmbeddings) -> Vec<TableSnapshot> {
        master
            .snapshot_tables()
            .into_iter()
            .map(|t| TableSnapshot {
                rows: t.rows() as u32,
                dim: t.dim() as u32,
                weights: t.weights().as_slice().to_vec(),
            })
            .collect()
    }

    /// Rebuilds the master embeddings from this checkpoint's snapshots.
    pub fn restore_master(&self) -> MasterEmbeddings {
        let tables = self
            .tables
            .iter()
            .map(|s| {
                EmbeddingTable::from_weights(Tensor::from_vec(
                    s.rows as usize,
                    s.dim as usize,
                    s.weights.clone(),
                ))
            })
            .collect();
        MasterEmbeddings::from_tables(tables)
    }

    /// CRC-32 over the encoded container: a compact fingerprint of the
    /// *entire* training state (dense parameters, master tables,
    /// scheduler, timeline, history). Two runs whose digests match at
    /// the same step are bit-identical — the workers-determinism suite
    /// compares these across worker counts and resume boundaries.
    pub fn digest(&self) -> u32 {
        crc32(&self.encode())
    }

    /// Serialises to the binary container (payload + CRC-32 trailer).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(4096);
        w.header(MAGIC, VERSION);
        w.u64(self.config_seed);
        w.u32(self.epoch);
        w.u64(self.hot_cursor);
        w.u64(self.cold_cursor);
        w.u64(self.steps);
        w.u64(self.hot_steps);
        w.u64(self.cold_steps);
        w.u64(self.transitions);
        w.u32(self.gpus_active);
        w.u8(self.cold_only as u8);
        let s = &self.scheduler;
        w.u32(s.rate);
        w.u8(s.prev_loss.is_some() as u8);
        w.f64(s.prev_loss.unwrap_or(0.0));
        w.u32(s.improving_streak);
        w.u32(s.u);
        w.count(s.history.len());
        for &(loss, rate) in &s.history {
            w.f64(loss);
            w.u32(rate);
        }
        // Timeline: the eight phases in display order, then CPU-resident.
        for phase in Phase::ALL {
            w.f64(self.timeline.get(phase));
        }
        w.f64(self.timeline.cpu_resident());
        w.count(self.history.len());
        for p in &self.history {
            w.u64(p.iteration as u64);
            w.f64(p.test_loss);
            w.f64(p.test_accuracy);
            w.u8(p.rate.is_some() as u8);
            w.u32(p.rate.unwrap_or(0));
            w.u64(p.hot_steps as u64);
            w.u64(p.cold_steps as u64);
            w.f64(p.sim_seconds);
        }
        w.count(self.faults.len());
        for f in &self.faults {
            w.u8(f.kind.tag());
            w.u64(f.at);
            w.u64(f.step);
        }
        w.count(self.recoveries.len());
        for r in &self.recoveries {
            write_recovery(&mut w, r);
        }
        write_model(&mut w, &self.dense_params, &self.tables);
        w.seal()
    }

    /// Parses and validates a container (CRC, magic, version, structure).
    pub fn decode(data: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(unseal(data)?);
        r.header(MAGIC, VERSION)?;
        let config_seed = r.u64()?;
        let epoch = r.u32()?;
        let hot_cursor = r.u64()?;
        let cold_cursor = r.u64()?;
        let steps = r.u64()?;
        let hot_steps = r.u64()?;
        let cold_steps = r.u64()?;
        let transitions = r.u64()?;
        let gpus_active = r.u32()?;
        let cold_only = r.flag("cold_only flag")?;
        let rate = r.u32()?;
        let prev_loss = r.flag("prev_loss flag")?.then_some(r.f64()?);
        let improving_streak = r.u32()?;
        let u = r.u32()?;
        let sched_history = r.list(|r| Ok((r.f64()?, r.u32()?)))?;
        let mut timeline = Timeline::new();
        for phase in Phase::ALL {
            timeline.add(phase, seconds(&mut r, "negative or non-finite phase time")?);
        }
        timeline.add_cpu_resident(seconds(&mut r, "negative or non-finite cpu-resident time")?);
        let history = r.list(|r| {
            let iteration = r.u64()? as usize;
            let test_loss = r.f64()?;
            let test_accuracy = r.f64()?;
            let rate = r.flag("eval rate flag")?.then_some(r.u32()?);
            Ok(EvalPoint {
                iteration,
                test_loss,
                test_accuracy,
                rate,
                hot_steps: r.u64()? as usize,
                cold_steps: r.u64()? as usize,
                sim_seconds: seconds(r, "negative or non-finite eval sim time")?,
            })
        })?;
        let faults = r.list(|r| {
            let kind =
                FaultKind::from_tag(r.u8()?).ok_or(CodecError::Corrupt("unknown fault kind"))?;
            Ok(InjectedFault { kind, at: r.u64()?, step: r.u64()? })
        })?;
        let recoveries = r.list(read_recovery)?;
        let dense_params = r.f32_vec()?;
        let tables = r.list(|r| {
            let (rows, dim) = (r.u32()?, r.u32()?);
            let weights = r.f32s((rows as usize).saturating_mul(dim as usize))?;
            Ok(TableSnapshot { rows, dim, weights })
        })?;
        r.finish()?;
        Ok(Self {
            config_seed,
            epoch,
            hot_cursor,
            cold_cursor,
            steps,
            hot_steps,
            cold_steps,
            transitions,
            gpus_active,
            cold_only,
            scheduler: SchedulerState {
                rate,
                prev_loss,
                improving_streak,
                u,
                history: sched_history,
            },
            timeline,
            history,
            faults,
            recoveries,
            dense_params,
            tables,
        })
    }

    /// Writes the checkpoint into `dir` as `ckpt-<steps>.faeck`,
    /// atomically. Returns the final path.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{FILE_PREFIX}{:012}{FILE_SUFFIX}", self.steps));
        write_atomic(&path, &self.encode())?;
        Ok(path)
    }

    /// Reads and validates a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, CodecError> {
        Self::decode(&fs::read(path)?)
    }
}

/// A simulated duration: finite and non-negative, else corruption.
fn seconds(r: &mut Reader<'_>, what: &'static str) -> Result<f64, CodecError> {
    let s = r.f64()?;
    if !s.is_finite() || s < 0.0 {
        return Err(CodecError::Corrupt(what));
    }
    Ok(s)
}

fn write_recovery(w: &mut Writer, r: &RecoveryAction) {
    match *r {
        RecoveryAction::ShrankReplicas { step, from, to } => {
            w.u8(0);
            w.u64(step);
            w.u32(from);
            w.u32(to);
        }
        RecoveryAction::ColdFallback { step } => {
            w.u8(1);
            w.u64(step);
        }
        RecoveryAction::SyncRetried { step, attempts, waited_s } => {
            w.u8(2);
            w.u64(step);
            w.u32(attempts);
            w.f64(waited_s);
        }
        RecoveryAction::RetriedIo { attempts, waited_s } => {
            w.u8(3);
            w.u32(attempts);
            w.f64(waited_s);
        }
        RecoveryAction::RebuiltArtifacts => w.u8(4),
        RecoveryAction::ResumedFromCheckpoint { step } => {
            w.u8(5);
            w.u64(step);
        }
        RecoveryAction::ReshardedToSurvivors { step, node, live } => {
            w.u8(6);
            w.u64(step);
            w.u32(node);
            w.u32(live);
        }
        RecoveryAction::NodeRejoined { step, node, state_bytes } => {
            w.u8(7);
            w.u64(step);
            w.u32(node);
            w.u64(state_bytes);
        }
    }
}

fn read_recovery(r: &mut Reader<'_>) -> Result<RecoveryAction, CodecError> {
    Ok(match r.u8()? {
        0 => RecoveryAction::ShrankReplicas { step: r.u64()?, from: r.u32()?, to: r.u32()? },
        1 => RecoveryAction::ColdFallback { step: r.u64()? },
        2 => RecoveryAction::SyncRetried { step: r.u64()?, attempts: r.u32()?, waited_s: r.f64()? },
        3 => RecoveryAction::RetriedIo { attempts: r.u32()?, waited_s: r.f64()? },
        4 => RecoveryAction::RebuiltArtifacts,
        5 => RecoveryAction::ResumedFromCheckpoint { step: r.u64()? },
        6 => {
            RecoveryAction::ReshardedToSurvivors { step: r.u64()?, node: r.u32()?, live: r.u32()? }
        }
        7 => RecoveryAction::NodeRejoined { step: r.u64()?, node: r.u32()?, state_bytes: r.u64()? },
        _ => return Err(CodecError::Corrupt("unknown recovery tag")),
    })
}

/// The model section shared by the checkpoint and [`model_digest`]:
/// counted dense parameters, then counted tables of `rows`, `dim` and
/// `rows * dim` weights.
fn write_model(w: &mut Writer, dense_params: &[f32], tables: &[TableSnapshot]) {
    w.f32_vec(dense_params);
    w.count(tables.len());
    for t in tables {
        w.u32(t.rows);
        w.u32(t.dim);
        w.f32s(&t.weights);
    }
}

/// Finds the most recent checkpoint (highest step count) in `dir`.
/// Returns `Ok(None)` when the directory is missing or holds none.
pub fn latest_in(dir: &Path) -> io::Result<Option<PathBuf>> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix(FILE_PREFIX).and_then(|s| s.strip_suffix(FILE_SUFFIX))
        else {
            continue;
        };
        let Ok(steps) = stem.parse::<u64>() else { continue };
        if best.as_ref().is_none_or(|(b, _)| steps > *b) {
            best = Some((steps, entry.path()));
        }
    }
    Ok(best.map(|(_, p)| p))
}

/// CRC-32 fingerprint of the *model* alone: flattened dense parameters
/// plus the master embedding tables. Unlike [`TrainCheckpoint::digest`]
/// it ignores scheduler/timeline/fault state, so a distributed run and a
/// single-process run that trained the same weights compare equal even
/// though their fault logs differ.
pub fn model_digest(dense_params: &[f32], tables: &[TableSnapshot]) -> u32 {
    let mut w = Writer::with_capacity(dense_params.len() * 4 + 64);
    write_model(&mut w, dense_params, tables);
    crc32(&w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        TrainCheckpoint {
            config_seed: 0xF00D,
            epoch: 1,
            hot_cursor: 12,
            cold_cursor: 34,
            steps: 123,
            hot_steps: 60,
            cold_steps: 63,
            transitions: 8,
            gpus_active: 3,
            cold_only: false,
            scheduler: SchedulerState {
                rate: 25,
                prev_loss: Some(0.43),
                improving_streak: 2,
                u: 4,
                history: vec![(0.5, 50), (0.43, 25)],
            },
            timeline: {
                let mut t = Timeline::new();
                t.add(Phase::EmbedSync, 1.25);
                t.add(Phase::Optimizer, 0.75);
                t.add_cpu_resident(0.5);
                t
            },
            history: vec![EvalPoint {
                iteration: 50,
                test_loss: 0.5,
                test_accuracy: 0.7,
                rate: Some(50),
                hot_steps: 20,
                cold_steps: 30,
                sim_seconds: 1.75,
            }],
            faults: vec![InjectedFault { kind: FaultKind::DeviceLoss, at: 40, step: 41 }],
            recoveries: vec![
                RecoveryAction::ShrankReplicas { step: 41, from: 4, to: 3 },
                RecoveryAction::SyncRetried { step: 60, attempts: 3, waited_s: 0.15 },
                RecoveryAction::RebuiltArtifacts,
                RecoveryAction::ReshardedToSurvivors { step: 70, node: 1, live: 2 },
                RecoveryAction::NodeRejoined { step: 90, node: 1, state_bytes: 4096 },
            ],
            dense_params: vec![0.1, -0.2, 0.3],
            tables: vec![
                TableSnapshot { rows: 2, dim: 3, weights: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0] },
                TableSnapshot { rows: 1, dim: 3, weights: vec![-1.0, -2.0, -3.0] },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip_is_exact() {
        let ck = sample();
        let bytes = ck.encode();
        let back = TrainCheckpoint::decode(&bytes).expect("decode");
        assert_eq!(back, ck);
    }

    #[test]
    fn crc_guards_every_byte() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            assert!(TrainCheckpoint::decode(&bad).is_err(), "flipping byte {i} went undetected");
        }
    }

    #[test]
    fn resealed_byte_changes_never_panic() {
        // Past the CRC: every payload byte set to a few values under a
        // recomputed trailer, so the field decoders see malformed records.
        let bytes = sample().encode();
        let payload = &bytes[..bytes.len() - 4];
        for i in 0..payload.len() {
            for value in [0x00, 0x01, 0x7F, 0xFF] {
                let mut w = Writer::default();
                w.bytes(&payload[..i]);
                w.u8(value);
                w.bytes(&payload[i + 1..]);
                let _ = TrainCheckpoint::decode(&w.seal());
            }
        }
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                TrainCheckpoint::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn save_is_atomic_and_latest_finds_newest() {
        let dir = std::env::temp_dir().join("fae-ckpt-test");
        let _ = fs::remove_dir_all(&dir);
        assert!(latest_in(&dir).expect("missing dir is not an error").is_none());
        let mut a = sample();
        a.steps = 100;
        let mut b = sample();
        b.steps = 250;
        a.save(&dir).expect("save a");
        let pb = b.save(&dir).expect("save b");
        // No temp residue.
        let residue: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(residue.is_empty(), "temp files left behind: {residue:?}");
        assert_eq!(latest_in(&dir).expect("scan").as_deref(), Some(pb.as_path()));
        let loaded = TrainCheckpoint::load(&pb).expect("load");
        assert_eq!(loaded.steps, 250);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn master_snapshot_restores_identically() {
        use fae_data::WorkloadSpec;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let spec = WorkloadSpec::tiny_test();
        let mut rng = StdRng::seed_from_u64(9);
        let master = MasterEmbeddings::from_spec(&spec, &mut rng);
        let mut ck = sample();
        ck.tables = TrainCheckpoint::snapshot_master(&master);
        let back = ck.restore_master();
        assert_eq!(back.tables().unwrap().len(), master.tables().unwrap().len());
        for (a, b) in master.tables().unwrap().iter().zip(back.tables().unwrap()) {
            assert_eq!(a.weights().as_slice(), b.weights().as_slice());
        }
    }

    #[test]
    fn adversarial_declared_sizes_do_not_allocate_or_panic() {
        // A header that claims u32::MAX scheduler-history entries on a
        // tiny buffer must fail cleanly (Truncated), not try to allocate.
        let mut bytes = sample().encode();
        // scheduler history length sits after: magic(4)+ver(4)+seed(8)+
        // epoch(4)+cursors(16)+counters(32)+gpus(4)+cold(1)+rate(4)+
        // prev(1+8)+streak(4)+u(4) = offset 94.
        bytes[94..98].copy_from_slice(&u32::MAX.to_le_bytes());
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(TrainCheckpoint::decode(&bytes), Err(CodecError::Truncated { .. })));
    }
}
