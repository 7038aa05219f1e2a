//! Byte pins for the binary containers.
//!
//! Round-trip tests compare a decode with the encode that produced it,
//! so a codec change that moves both sides the same way passes them.
//! These tests pin the absolute bytes instead: the length and CRC-32 of
//! a fixed `.fae` stream and a fixed training checkpoint, and the model
//! digest of that checkpoint's parameters. Each test also decodes the
//! pinned bytes back to the value they came from.
//!
//! The crafted-input tests feed each decoder a tiny input that declares
//! far more content than it holds, and bound the largest allocation the
//! decode makes while refusing it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fae::core::{
    model_digest, EvalPoint, FaultKind, InjectedFault, RecoveryAction, SchedulerState,
    TableSnapshot, TrainCheckpoint,
};
use fae::data::codec::{crc32, Writer};
use fae::data::format::{FaeFile, FaeStreamReader};
use fae::data::{BatchKind, MiniBatch, TableIndices};
use fae::net::wire::{self, Frame};
use fae::sysmodel::{Phase, Timeline};

/// The system allocator, recording the largest single request each
/// thread makes.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees carry over; recording a size only touches a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation
/// this thread made meanwhile.
fn peak_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// A batch of `len` samples over two tables (one- and two-id bags) with
/// two non-zero dense features per sample.
fn batch(kind: BatchKind, len: usize, salt: u32) -> MiniBatch {
    let (mut a, mut b) = (TableIndices::new(), TableIndices::new());
    for i in 0..len as u32 {
        a.push_bag(&[salt + i]);
        b.push_bag(&[2 * i, 2 * i + salt]);
    }
    MiniBatch {
        kind,
        dense: (0..2 * len).map(|v| 0.25 + v as f32 * 1.5 + salt as f32).collect(),
        dense_width: 2,
        sparse: vec![a, b],
        labels: (0..len).map(|i| ((i as u32 + salt) % 2) as f32).collect(),
    }
}

fn stream() -> FaeFile {
    FaeFile::new(
        "pinned",
        vec![
            batch(BatchKind::Hot, 3, 1),
            batch(BatchKind::Cold, 2, 7),
            batch(BatchKind::Unclassified, 1, 4),
        ],
    )
}

fn checkpoint() -> TrainCheckpoint {
    let mut timeline = Timeline::new();
    timeline.add(Phase::EmbedForward, 0.5);
    timeline.add(Phase::Transfer, 0.125);
    timeline.add(Phase::EmbedSync, 1.75);
    timeline.add_cpu_resident(0.375);
    let eval = |iteration, rate, sim_seconds| EvalPoint {
        iteration,
        test_loss: 0.5 + iteration as f64 * 1e-3,
        test_accuracy: 0.75,
        rate,
        hot_steps: iteration / 2,
        cold_steps: iteration - iteration / 2,
        sim_seconds,
    };
    TrainCheckpoint {
        config_seed: 0xDEAD_BEEF_0042,
        epoch: 2,
        hot_cursor: 17,
        cold_cursor: 5,
        steps: 140,
        hot_steps: 90,
        cold_steps: 50,
        transitions: 11,
        gpus_active: 3,
        cold_only: false,
        scheduler: SchedulerState {
            rate: 25,
            prev_loss: Some(0.4375),
            improving_streak: 2,
            u: 4,
            history: vec![(0.5, 50), (0.4375, 25)],
        },
        timeline,
        history: vec![eval(40, Some(50), 1.5), eval(80, None, 2.25)],
        faults: vec![
            InjectedFault { kind: FaultKind::DeviceLoss, at: 30, step: 31 },
            InjectedFault { kind: FaultKind::SyncFailure, at: 60, step: 64 },
        ],
        recoveries: vec![
            RecoveryAction::ShrankReplicas { step: 31, from: 4, to: 3 },
            RecoveryAction::ColdFallback { step: 45 },
            RecoveryAction::SyncRetried { step: 64, attempts: 2, waited_s: 0.0625 },
            RecoveryAction::RetriedIo { attempts: 3, waited_s: 0.125 },
            RecoveryAction::RebuiltArtifacts,
            RecoveryAction::ResumedFromCheckpoint { step: 100 },
            RecoveryAction::ReshardedToSurvivors { step: 110, node: 1, live: 2 },
            RecoveryAction::NodeRejoined { step: 120, node: 1, state_bytes: 8192 },
        ],
        dense_params: vec![0.5, -1.25, 3.0, 1e-3],
        tables: vec![
            TableSnapshot { rows: 3, dim: 2, weights: vec![1.0, -2.0, 3.5, 4.0, -5.5, 6.0] },
            TableSnapshot { rows: 1, dim: 2, weights: vec![0.125, -0.25] },
        ],
    }
}

fn assert_same_batches(a: &[MiniBatch], b: &[MiniBatch]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.dense_width, y.dense_width);
        assert_eq!(x.dense, y.dense);
        assert_eq!(x.labels, y.labels);
        assert_eq!(x.sparse, y.sparse);
    }
}

#[test]
fn fae_stream_bytes_are_pinned() {
    let f = stream();
    let bytes = f.encode();
    assert_eq!((bytes.len(), crc32(&bytes)), (285, 0xAFBE0DC2));
    let back = FaeFile::decode(&bytes).expect("pinned stream decodes");
    assert_eq!((back.workload.as_str(), back.dense_width, back.num_tables), ("pinned", 2, 2));
    assert_same_batches(&back.batches, &f.batches);
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let ck = checkpoint();
    let bytes = ck.encode();
    assert_eq!((bytes.len(), crc32(&bytes)), (530, 0x2144DF1C));
    assert_eq!(ck.digest(), 0x2144DF1C);
    assert_eq!(TrainCheckpoint::decode(&bytes).expect("pinned checkpoint decodes"), ck);
}

#[test]
fn model_digest_is_pinned() {
    let ck = checkpoint();
    assert_eq!(model_digest(&ck.dense_params, &ck.tables), 0xCA3E87EC);
}

/// 30 bytes: `FAE1`, version 1, the one-byte workload name `x`, dense
/// width 0, `u32::MAX` tables, one batch: a hot batch of 0 samples.
/// Reserving the declared tables alone would take 206 GB.
const CRAFTED_STREAM: &[u8] =
    b"FAE1\x01\x00\x00\x00\x01\x00\x00\x00x\x00\x00\x00\x00\xff\xff\xff\xff\x01\x00\x00\x00\x00\x00\x00\x00\x00";

#[test]
fn a_stream_declaring_more_tables_than_it_holds_is_an_error() {
    assert_eq!(CRAFTED_STREAM.len(), 30);
    let (decoded, peak) = peak_allocation(|| FaeFile::decode(CRAFTED_STREAM));
    assert!(decoded.is_err());
    assert!(peak <= CRAFTED_STREAM.len(), "decode allocated {peak} bytes");
    let streamed = FaeStreamReader::open(CRAFTED_STREAM).and_then(|mut r| r.next_batch());
    assert!(streamed.is_err());
}

#[test]
fn a_grads_frame_with_an_absurd_dim_is_an_error() {
    // A CRC-valid Grads frame: loss, samples, no dense gradient, and one
    // sparse table of dim u32::MAX with no rows. A value buffer sized by
    // that dim would take 17 GB.
    let mut w = Writer::default();
    w.bytes(&wire::MAGIC);
    w.u16(wire::VERSION);
    w.u8(3); // Grads
    w.u32(0); // node
    w.u32(0); // epoch
    w.u64(0); // seq
    w.u64(0); // step
    w.f32(0.5);
    w.u32(1);
    w.count(0);
    w.count(1);
    w.u32(u32::MAX);
    w.count(0);
    let frame = w.seal();
    let (decoded, peak) = peak_allocation(|| Frame::decode(&frame));
    assert!(decoded.is_err());
    assert!(peak <= frame.len(), "decode allocated {peak} bytes");
}
