//! Frame and payload codecs for the FAE wire protocol.
//!
//! A frame on the wire is a little-endian length prefix followed by the
//! frame body and a CRC-32 trailer:
//!
//! ```text
//! u32 len        bytes after this prefix (body + crc)
//! [ body ]
//!   magic  [u8; 4]   "FAEN"
//!   version u16      protocol version (2)
//!   kind    u8       message kind tag
//!   node    u32      worker node id (sender or addressee)
//!   epoch   u32      membership generation the frame belongs to
//!   seq     u64      per-coordinator monotone sequence number
//!   step    u64      training step the frame is about
//!   payload ...      kind-specific, see [`Message`]
//! u32 crc        CRC-32 over the body (`fae_data::codec::crc32`)
//! ```
//!
//! Fields are written and read with [`fae_data::codec`], the codec the
//! `.fae` stream and checkpoints use; a `Task` carries its shard as the
//! `.fae` stream's mini-batch record. Replies echo the request's `seq`,
//! `epoch` and `step`, which is what lets the coordinator discard stale
//! or duplicated replies and lets the worker-side [`crate::Ledger`] drop
//! replayed state mutations. Every numeric field — including each `f32`
//! — round-trips bit-exactly, a precondition for the distributed run
//! matching the single-process model digest.
//!
//! Decoding is fully bounds-checked and never panics: torn, truncated or
//! bit-flipped frames, and CRC-valid frames whose fields are malformed,
//! surface as [`NetError::Corrupt`] without allocating more than the
//! frame backs.

use fae_data::codec::{unseal, CodecError, Reader, Writer};
use fae_data::MiniBatch;
use fae_embed::SparseGrad;
use fae_telemetry::StepMode;

/// Frame magic: distinguishes protocol traffic from stray connections.
pub const MAGIC: [u8; 4] = *b"FAEN";

/// Protocol version. Version 2 ships a `Task` shard as the `.fae`
/// stream's mini-batch record.
pub const VERSION: u16 = 2;

/// Hard cap on a frame body — a length prefix beyond this is corruption,
/// not a giant message, and is rejected before any allocation.
pub const MAX_FRAME: usize = 256 << 20;

/// Transport and protocol failures.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// A read or write missed its deadline.
    Timeout(&'static str),
    /// The peer closed the connection.
    Disconnected,
    /// A frame failed structural validation (bad magic/version/CRC,
    /// truncated payload, oversized length).
    Corrupt(String),
    /// A structurally valid frame violated the protocol (wrong kind,
    /// unparseable embedded JSON, bad node id).
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Timeout(what) => write!(f, "deadline missed: {what}"),
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Corrupt(e.to_string())
    }
}

/// One hot-bag row shipped at a refresh or in a welcome.
#[derive(Clone, Debug, PartialEq)]
pub struct HotEntry {
    /// Embedding table index.
    pub table: u32,
    /// Global row id within the table.
    pub row: u32,
    /// The row's weights.
    pub values: Vec<f32>,
}

impl HotEntry {
    /// Bytes this entry occupies on the wire.
    pub fn wire_bytes(&self) -> usize {
        4 + 4 + 4 + self.values.len() * 4
    }
}

/// The protocol's message kinds.
#[derive(Clone, Debug)]
pub enum Message {
    /// Worker → coordinator: request admission (node id in the header).
    Hello,
    /// Coordinator → worker: admission plus the state bootstrap — the
    /// worker replays the seeded RNG construction for bit-identical
    /// initial tables, then fast-forwards via `dense` and `hot`.
    Welcome {
        /// Total logical worker count (fixed for the run).
        workers: u32,
        /// Model/master construction seed.
        seed: u64,
        /// The workload spec, JSON.
        spec_json: String,
        /// Hot/cold partitions, JSON (empty until the first refresh).
        partitions_json: String,
        /// Current dense parameters of the coordinator's replicas.
        dense: Vec<f32>,
        /// Hot-bag rows as of the last refresh.
        hot: Vec<HotEntry>,
    },
    /// Coordinator → worker: compute one shard's forward/backward.
    Task {
        /// Full mini-batch sample count (the gradient scale denominator).
        total: u32,
        /// Hot (worker's hot bags) or cold (worker's master tables).
        mode: StepMode,
        /// The shard itself.
        shard: MiniBatch,
    },
    /// Worker → coordinator: the shard's output, mirror of
    /// [`fae_core::exec::ShardOutput`].
    Grads {
        /// Shard-mean loss, grad-scaled.
        loss: f32,
        /// Samples in the shard.
        samples: u32,
        /// Dense gradients.
        dense: Vec<f32>,
        /// Per-table sparse gradients.
        sparse: Vec<SparseGrad>,
    },
    /// Coordinator → worker: apply the reduced step so replicas stay
    /// bit-identical. Idempotent under the ledger.
    Apply {
        /// Which embedding source the sparse update targets.
        mode: StepMode,
        /// Learning rate.
        lr: f32,
        /// Reduced dense gradient (every replica applies it).
        dense: Vec<f32>,
        /// Merged sparse gradients (hot steps only; empty for cold).
        sparse: Vec<SparseGrad>,
    },
    /// Worker → coordinator: a state mutation was applied (or was a
    /// detected duplicate and skipped).
    Ack,
    /// Coordinator → worker: refreshed hot-bag rows (and the partitions
    /// defining them). Idempotent under the ledger.
    HotBagSync {
        /// Hot/cold partitions, JSON.
        partitions_json: String,
        /// Every hot row, refreshed from the master tables.
        hot: Vec<HotEntry>,
    },
    /// Coordinator → worker: liveness probe.
    Heartbeat,
    /// Worker → coordinator: liveness reply.
    HeartbeatAck,
    /// Coordinator → worker: the run is over, exit cleanly.
    Shutdown,
    /// Coordinator → worker: ship your journal events from sequence
    /// `ack` on. Strictly coordinator-initiated, like every other RPC —
    /// workers never push.
    TelemetryPoll {
        /// The coordinator's acknowledged cursor: the first per-node
        /// event sequence number it has *not* yet persisted.
        ack: u64,
    },
    /// Worker → coordinator: a batch of tagged journal lines (JSONL,
    /// one event per line) starting at sequence `from`. Retried polls
    /// re-ship from the same cursor; the coordinator's ship ledger
    /// drops the duplicated prefix, making delivery exactly-once.
    Telemetry {
        /// Per-node sequence number of the first line in the batch
        /// (echoes the poll's `ack`).
        from: u64,
        /// The events, newline-separated; empty when caught up.
        events_jsonl: String,
    },
}

impl Message {
    /// Stable wire tag.
    pub fn tag(&self) -> u8 {
        match self {
            Message::Hello => 0,
            Message::Welcome { .. } => 1,
            Message::Task { .. } => 2,
            Message::Grads { .. } => 3,
            Message::Apply { .. } => 4,
            Message::Ack => 5,
            Message::HotBagSync { .. } => 6,
            Message::Heartbeat => 7,
            Message::HeartbeatAck => 8,
            Message::Shutdown => 9,
            Message::TelemetryPoll { .. } => 10,
            Message::Telemetry { .. } => 11,
        }
    }

    /// Human-readable kind name (journal/log labels).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Message::Hello => "hello",
            Message::Welcome { .. } => "welcome",
            Message::Task { .. } => "task",
            Message::Grads { .. } => "grads",
            Message::Apply { .. } => "apply",
            Message::Ack => "ack",
            Message::HotBagSync { .. } => "hot-bag-sync",
            Message::Heartbeat => "heartbeat",
            Message::HeartbeatAck => "heartbeat-ack",
            Message::Shutdown => "shutdown",
            Message::TelemetryPoll { .. } => "telemetry-poll",
            Message::Telemetry { .. } => "telemetry",
        }
    }

    /// True for kinds that mutate worker state and must be deduplicated
    /// by the ledger (as opposed to pure recomputation or probes).
    pub fn mutates_state(&self) -> bool {
        matches!(self, Message::Apply { .. } | Message::HotBagSync { .. })
    }
}

/// One addressed, sequenced protocol message.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Worker node id (sender for worker→coordinator, addressee for
    /// coordinator→worker).
    pub node: u32,
    /// Membership generation.
    pub epoch: u32,
    /// Coordinator-assigned sequence number (replies echo it).
    pub seq: u64,
    /// Training step this frame is about.
    pub step: u64,
    /// The payload.
    pub msg: Message,
}

impl Frame {
    /// Encodes the frame ready to send: length prefix, body, CRC.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.bytes(&MAGIC);
        w.u16(VERSION);
        w.u8(self.msg.tag());
        w.u32(self.node);
        w.u32(self.epoch);
        w.u64(self.seq);
        w.u64(self.step);
        encode_payload(&self.msg, &mut w);
        let body = w.seal();
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decodes a frame from `bytes` — everything after the length
    /// prefix, CRC trailer included.
    pub fn decode(bytes: &[u8]) -> Result<Frame, NetError> {
        let mut r = Reader::new(unseal(bytes)?);
        r.magic(&MAGIC)?;
        let version = r.u16()?;
        if version != VERSION {
            return Err(CodecError::BadVersion(version.into()).into());
        }
        let kind = r.u8()?;
        let node = r.u32()?;
        let epoch = r.u32()?;
        let seq = r.u64()?;
        let step = r.u64()?;
        let msg = decode_payload(kind, &mut r)?;
        r.finish()?;
        Ok(Frame { node, epoch, seq, step, msg })
    }
}

fn step_mode_tag(mode: StepMode) -> u8 {
    match mode {
        StepMode::Cold => 0,
        StepMode::Hot => 1,
    }
}

fn step_mode_from(tag: u8) -> Result<StepMode, CodecError> {
    match tag {
        0 => Ok(StepMode::Cold),
        1 => Ok(StepMode::Hot),
        _ => Err(CodecError::Corrupt("bad step mode tag")),
    }
}

fn encode_payload(msg: &Message, w: &mut Writer) {
    match msg {
        Message::Hello
        | Message::Ack
        | Message::Heartbeat
        | Message::HeartbeatAck
        | Message::Shutdown => {}
        Message::TelemetryPoll { ack } => w.u64(*ack),
        Message::Telemetry { from, events_jsonl } => {
            w.u64(*from);
            w.str(events_jsonl);
        }
        Message::Welcome { workers, seed, spec_json, partitions_json, dense, hot } => {
            w.u32(*workers);
            w.u64(*seed);
            w.str(spec_json);
            w.str(partitions_json);
            w.f32_vec(dense);
            write_entries(w, hot);
        }
        Message::Task { total, mode, shard } => {
            w.u32(*total);
            w.u8(step_mode_tag(*mode));
            w.u32(shard.dense_width as u32);
            w.u32(shard.sparse.len() as u32);
            w.batch(shard);
        }
        Message::Grads { loss, samples, dense, sparse } => {
            w.f32(*loss);
            w.u32(*samples);
            w.f32_vec(dense);
            write_sparse(w, sparse);
        }
        Message::Apply { mode, lr, dense, sparse } => {
            w.u8(step_mode_tag(*mode));
            w.f32(*lr);
            w.f32_vec(dense);
            write_sparse(w, sparse);
        }
        Message::HotBagSync { partitions_json, hot } => {
            w.str(partitions_json);
            write_entries(w, hot);
        }
    }
}

fn decode_payload(kind: u8, r: &mut Reader<'_>) -> Result<Message, NetError> {
    Ok(match kind {
        0 => Message::Hello,
        1 => Message::Welcome {
            workers: r.u32()?,
            seed: r.u64()?,
            spec_json: r.str()?,
            partitions_json: r.str()?,
            dense: r.f32_vec()?,
            hot: read_entries(r)?,
        },
        2 => {
            let (total, mode) = (r.u32()?, step_mode_from(r.u8()?)?);
            let (dense_width, tables) = (r.u32()? as usize, r.u32()? as usize);
            Message::Task { total, mode, shard: r.batch(dense_width, tables)? }
        }
        3 => Message::Grads {
            loss: r.f32()?,
            samples: r.u32()?,
            dense: r.f32_vec()?,
            sparse: read_sparse(r)?,
        },
        4 => Message::Apply {
            mode: step_mode_from(r.u8()?)?,
            lr: r.f32()?,
            dense: r.f32_vec()?,
            sparse: read_sparse(r)?,
        },
        5 => Message::Ack,
        6 => Message::HotBagSync { partitions_json: r.str()?, hot: read_entries(r)? },
        7 => Message::Heartbeat,
        8 => Message::HeartbeatAck,
        9 => Message::Shutdown,
        10 => Message::TelemetryPoll { ack: r.u64()? },
        11 => Message::Telemetry { from: r.u64()?, events_jsonl: r.str()? },
        other => return Err(NetError::Corrupt(format!("unknown message kind {other}"))),
    })
}

fn write_entries(w: &mut Writer, entries: &[HotEntry]) {
    w.count(entries.len());
    for e in entries {
        w.u32(e.table);
        w.u32(e.row);
        w.f32_vec(&e.values);
    }
}

fn read_entries(r: &mut Reader<'_>) -> Result<Vec<HotEntry>, CodecError> {
    r.list(|r| Ok(HotEntry { table: r.u32()?, row: r.u32()?, values: r.f32_vec()? }))
}

/// Per table: `dim`, the row count, then each row's id and `dim` values.
fn write_sparse(w: &mut Writer, grads: &[SparseGrad]) {
    w.count(grads.len());
    for g in grads {
        w.u32(g.dim() as u32);
        w.count(g.nnz_rows());
        for (row, values) in g.iter() {
            w.u32(row);
            w.f32s(values);
        }
    }
}

fn read_sparse(r: &mut Reader<'_>) -> Result<Vec<SparseGrad>, CodecError> {
    r.list(|r| {
        let dim = r.u32()? as usize;
        if dim.saturating_add(1).saturating_mul(4) > MAX_FRAME {
            // No frame could carry one row this wide.
            return Err(CodecError::Corrupt("gradient dim over frame cap"));
        }
        let rows = r.count(dim.saturating_add(1).saturating_mul(4))?;
        let mut g = SparseGrad::new(dim);
        for _ in 0..rows {
            let row = r.u32()?;
            g.accumulate(row, &r.f32s(dim)?);
        }
        Ok(g)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fae_data::{generate, BatchKind, GenOptions, WorkloadSpec};

    fn sample_batch() -> MiniBatch {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(7, 200));
        MiniBatch::gather(&ds, &(0..64).collect::<Vec<_>>(), BatchKind::Hot)
    }

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = frame.encode();
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        assert_eq!(len, bytes.len() - 4, "length prefix covers body + crc");
        Frame::decode(&bytes[4..]).expect("clean frame decodes")
    }

    #[test]
    fn empty_payload_kinds_round_trip() {
        for msg in [
            Message::Hello,
            Message::Ack,
            Message::Heartbeat,
            Message::HeartbeatAck,
            Message::Shutdown,
        ] {
            let tag = msg.tag();
            let f = Frame { node: 3, epoch: 7, seq: 99, step: 12, msg };
            let back = roundtrip(&f);
            assert_eq!(back.msg.tag(), tag);
            assert_eq!((back.node, back.epoch, back.seq, back.step), (3, 7, 99, 12));
        }
    }

    #[test]
    fn task_round_trips_bit_exactly() {
        let f = Frame {
            node: 1,
            epoch: 2,
            seq: 3,
            step: 4,
            msg: Message::Task { total: 256, mode: StepMode::Hot, shard: sample_batch() },
        };
        let back = roundtrip(&f);
        let Message::Task { shard, total, mode } = &back.msg else { panic!("wrong kind") };
        let Message::Task { shard: orig, .. } = &f.msg else { panic!() };
        assert_eq!(*total, 256);
        assert_eq!(*mode, StepMode::Hot);
        assert_eq!(shard.labels, orig.labels);
        assert_eq!(
            shard.dense.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            orig.dense.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(shard.sparse, orig.sparse);
    }

    #[test]
    fn grads_round_trip_preserves_sparse_rows() {
        let mut g = SparseGrad::new(4);
        g.accumulate(7, &[1.0, -2.5, 3.25, f32::MIN_POSITIVE]);
        g.accumulate(2, &[0.5; 4]);
        let f = Frame {
            node: 0,
            epoch: 1,
            seq: 10,
            step: 5,
            msg: Message::Grads {
                loss: 0.693,
                samples: 64,
                dense: vec![1.5, -0.25, f32::EPSILON],
                sparse: vec![g.clone(), SparseGrad::new(4)],
            },
        };
        let back = roundtrip(&f);
        let Message::Grads { sparse, loss, .. } = back.msg else { panic!("wrong kind") };
        assert_eq!(loss.to_bits(), 0.693f32.to_bits());
        assert_eq!(sparse[0].get(7), g.get(7));
        assert_eq!(sparse[0].get(2), g.get(2));
        assert!(sparse[1].is_empty());
    }

    #[test]
    fn welcome_round_trips_state() {
        let f = Frame {
            node: 2,
            epoch: 3,
            seq: 1,
            step: 0,
            msg: Message::Welcome {
                workers: 4,
                seed: 42,
                spec_json: "{\"name\":\"x\"}".into(),
                partitions_json: String::new(),
                dense: vec![0.125; 16],
                hot: vec![HotEntry { table: 1, row: 9, values: vec![1.0, 2.0] }],
            },
        };
        let back = roundtrip(&f);
        let Message::Welcome { workers, seed, spec_json, partitions_json, dense, hot } = back.msg
        else {
            panic!("wrong kind");
        };
        assert_eq!((workers, seed), (4, 42));
        assert_eq!(spec_json, "{\"name\":\"x\"}");
        assert!(partitions_json.is_empty());
        assert_eq!(dense, vec![0.125; 16]);
        assert_eq!(hot, vec![HotEntry { table: 1, row: 9, values: vec![1.0, 2.0] }]);
    }

    #[test]
    fn telemetry_frames_round_trip_and_never_mutate_state() {
        let poll =
            Frame { node: 1, epoch: 2, seq: 3, step: 4, msg: Message::TelemetryPoll { ack: 17 } };
        let back = roundtrip(&poll);
        let Message::TelemetryPoll { ack } = back.msg else { panic!("wrong kind") };
        assert_eq!(ack, 17);
        assert!(!poll.msg.mutates_state());

        let lines = "{\"type\":\"mark\",\"node_id\":2,\"seq\":0}\n{\"type\":\"mark\",\"node_id\":2,\"seq\":1}";
        let batch = Frame {
            node: 1,
            epoch: 2,
            seq: 3,
            step: 4,
            msg: Message::Telemetry { from: 17, events_jsonl: lines.into() },
        };
        let back = roundtrip(&batch);
        let Message::Telemetry { from, events_jsonl } = back.msg else { panic!("wrong kind") };
        assert_eq!(from, 17);
        assert_eq!(events_jsonl, lines);
        assert!(!batch.msg.mutates_state());
        assert_eq!(batch.msg.kind_name(), "telemetry");
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panicked() {
        let f = Frame {
            node: 1,
            epoch: 1,
            seq: 1,
            step: 1,
            msg: Message::Task { total: 64, mode: StepMode::Cold, shard: sample_batch() },
        };
        let bytes = f.encode();
        // Flip one byte in every position of the body: decode must error
        // (crc catches it), never panic.
        for at in 4..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(Frame::decode(&bad[4..]).is_err(), "flip at {at} accepted");
        }
        // Truncations too.
        for keep in 4..bytes.len() - 1 {
            assert!(Frame::decode(&bytes[4..keep]).is_err(), "truncation to {keep} accepted");
        }
        // Past the CRC: change a body byte, re-seal, decode. The field
        // decoders see the malformed frame and must not panic.
        let body = &bytes[4..bytes.len() - 4];
        for at in 0..body.len() {
            for value in [0x00, 0x01, 0x7F, 0xFF] {
                let mut bad = body.to_vec();
                bad[at] = value;
                let mut w = Writer::default();
                w.bytes(&bad);
                let _ = Frame::decode(&w.seal());
            }
        }
    }

    #[test]
    fn oversized_counts_do_not_allocate() {
        // A hand-built Grads frame claiming u32::MAX dense floats.
        let mut w = Writer::default();
        w.bytes(&MAGIC);
        w.u16(VERSION);
        w.u8(3); // Grads
        w.u32(0);
        w.u32(0);
        w.u64(0);
        w.u64(0);
        w.f32(0.0);
        w.u32(1);
        w.u32(u32::MAX); // dense count: absurd
        match Frame::decode(&w.seal()) {
            Err(NetError::Corrupt(m)) => assert!(m.contains("truncated"), "{m}"),
            other => panic!("expected corrupt error, got {other:?}"),
        }
    }
}
