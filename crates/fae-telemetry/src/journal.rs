//! The per-step event journal: one JSON object per line, written
//! incrementally and flushed after every event so a crashed run leaves a
//! readable prefix (crash-safe by construction — a torn final line is
//! skipped by the reader, everything before it is intact).
//!
//! The schema is deliberately flat and stable — every event carries a
//! `"type"` tag, and every simulated-time charge carries a `"phases"`
//! object whose values sum (across the whole journal) to the run's
//! `TrainReport::simulated_seconds`. `fae report` and the Chrome trace
//! exporter both consume this stream.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use fae_sysmodel::{Phase, Timeline};
use serde_json::{Map, Value};

/// Per-phase simulated seconds of one charge, in `Phase::ALL` order.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct PhaseSeconds(pub [f64; 8]);

impl PhaseSeconds {
    /// The difference `after − before`, phase by phase.
    pub fn delta(before: &Timeline, after: &Timeline) -> Self {
        let mut out = [0.0; 8];
        for (slot, phase) in out.iter_mut().zip(Phase::ALL) {
            *slot = after.get(phase) - before.get(phase);
        }
        PhaseSeconds(out)
    }

    /// Total seconds across phases.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Seconds charged to `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        self.0[phase.index()]
    }

    fn to_json(self) -> Value {
        let mut m = Map::new();
        for (phase, secs) in Phase::ALL.iter().zip(self.0) {
            if secs != 0.0 {
                m.insert(phase.to_string(), serde_json::to_value(&secs));
            }
        }
        Value::Object(m)
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let m = v.as_object().ok_or("phases: expected an object")?;
        let mut out = [0.0; 8];
        for (k, secs) in m.iter() {
            let i = Phase::ALL
                .iter()
                .position(|p| p.to_string() == *k)
                .ok_or_else(|| format!("phases: unknown phase '{k}'"))?;
            out[i] = secs.as_f64().ok_or_else(|| format!("phases.{k}: expected a number"))?;
        }
        Ok(PhaseSeconds(out))
    }
}

/// Whether a training step ran hot (pure-GPU) or cold (hybrid CPU+GPU).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepMode {
    /// Pure-GPU execution against the replicated hot bags.
    Hot,
    /// Hybrid execution against the CPU master tables.
    Cold,
}

impl StepMode {
    fn as_str(self) -> &'static str {
        match self {
            StepMode::Hot => "hot",
            StepMode::Cold => "cold",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "hot" => Ok(StepMode::Hot),
            "cold" => Ok(StepMode::Cold),
            other => Err(format!("unknown step mode '{other}'")),
        }
    }
}

/// One journal line. Every variant that charges simulated time carries
/// its per-phase breakdown; summing `phases` over all events reproduces
/// the run's `Timeline` exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalEvent {
    /// Run header: emitted once, first.
    RunStart {
        /// Workload name.
        workload: String,
        /// Training seed.
        seed: u64,
        /// Simulated GPU count at launch.
        num_gpus: usize,
        /// Epochs requested.
        epochs: usize,
        /// Global mini-batch size.
        minibatch_size: usize,
        /// Initial shuffle-scheduler rate (percent).
        initial_rate: u32,
        /// Worker threads in the parallel execution engine (1 = serial;
        /// absent in pre-engine journals, parsed as 1).
        workers: usize,
        /// Lookahead-oracle window in batches (0 = disabled; absent in
        /// older journals, parsed as 0).
        lookahead: u64,
        /// Stale-skip threshold in weight-delta units (0 = disabled;
        /// absent in older journals, parsed as 0).
        stale_skip: f64,
    },
    /// One training step.
    Step {
        /// Global step index (1-based, after the step completes).
        step: u64,
        /// Hot or cold execution.
        mode: StepMode,
        /// Scheduler rate in effect (percent).
        rate: u32,
        /// This batch's training BCE loss.
        loss: f64,
        /// Simulated seconds charged by this step, per phase.
        phases: PhaseSeconds,
    },
    /// A hot↔cold embedding synchronisation (or the initial replication).
    Sync {
        /// Step count when the sync happened.
        step: u64,
        /// What the sync was for: `initial`, `refresh`, `write-back`,
        /// `aborted-replication` or `retry`.
        direction: String,
        /// Bytes moved over PCIe per replica.
        bytes: u64,
        /// Simulated seconds charged, per phase.
        phases: PhaseSeconds,
    },
    /// A non-step, non-sync simulated-time charge (re-shard after device
    /// loss, retry backoff, checkpoint I/O stall).
    Charge {
        /// Step count when the charge happened.
        step: u64,
        /// What was charged (`reshard`, `sync-backoff`, `checkpoint-io`).
        label: String,
        /// Simulated seconds charged, per phase.
        phases: PhaseSeconds,
    },
    /// An end-of-round evaluation.
    Eval {
        /// Step count at evaluation.
        step: u64,
        /// Test BCE loss.
        test_loss: f64,
        /// Test accuracy.
        test_accuracy: f64,
        /// Scheduler rate after adaptation (percent), if FAE.
        rate: Option<u32>,
        /// Cumulative hot steps at this point.
        hot_steps: u64,
        /// Cumulative cold steps at this point.
        cold_steps: u64,
        /// Cumulative simulated seconds at this point.
        sim_seconds: f64,
    },
    /// An injected fault fired.
    Fault {
        /// Step at which it fired.
        step: u64,
        /// Fault kind (spec-string form, e.g. `device-loss`).
        kind: String,
    },
    /// A recovery action was taken (including artifact rebuilds).
    Recovery {
        /// Step at which it was taken (0 for load-time recoveries).
        step: u64,
        /// Action label (e.g. `shrank-replicas`, `rebuilt-artifacts`).
        action: String,
        /// Human-readable detail (rebuild reason, retry counts, ...).
        detail: String,
    },
    /// A worker node joined (or rejoined) the distributed training group.
    NodeJoin {
        /// Step at which the coordinator admitted it.
        step: u64,
        /// The node's id.
        node: u64,
        /// Membership generation after the join.
        epoch: u64,
        /// Bytes of state shipped in the welcome (dense params + hot rows).
        state_bytes: u64,
    },
    /// A worker node was declared dead by the failure detector.
    NodeLost {
        /// Step at which it was declared dead.
        step: u64,
        /// The node's id.
        node: u64,
        /// Consecutive missed deadlines that crossed the suspicion
        /// threshold (0 = hard disconnect).
        suspicion: u64,
    },
    /// The coordinator re-assigned a lost node's shard and charged the
    /// reshard to the timeline.
    Reshard {
        /// Step at which the reshard happened.
        step: u64,
        /// The lost node whose shard moved.
        node: u64,
        /// Live workers after the reshard.
        live: u64,
        /// Simulated seconds charged, per phase.
        phases: PhaseSeconds,
    },
    /// Run trailer: totals, emitted once, last.
    RunEnd {
        /// Total steps executed.
        steps: u64,
        /// Steps run hot.
        hot_steps: u64,
        /// Steps run cold.
        cold_steps: u64,
        /// Hot↔cold transitions.
        transitions: u64,
        /// Total simulated seconds (`Timeline::total`).
        simulated_seconds: f64,
        /// Final test accuracy.
        final_accuracy: f64,
        /// Final scheduler rate, if FAE.
        final_rate: Option<u32>,
        /// Whether the run was interrupted (`halt_after_steps`).
        interrupted: bool,
    },
    /// Serve-run header (`fae serve`): emitted once, first.
    ServeStart {
        /// Workload name.
        workload: String,
        /// Serving seed (model init fallback + closed-loop input draws).
        seed: u64,
        /// Serving worker pool size.
        workers: usize,
        /// Micro-batcher close threshold (requests).
        max_batch: usize,
        /// Micro-batcher deadline, microseconds.
        max_delay_us: u64,
        /// Bounded-queue admission cap (requests queued or in flight).
        queue_cap: usize,
    },
    /// One dispatched inference micro-batch.
    ServeBatch {
        /// Batch index (dispatch order, 1-based).
        batch: u64,
        /// Worker that executed it.
        worker: usize,
        /// Requests in the batch.
        size: usize,
        /// Simulated dispatch instant, seconds from serve start.
        start_s: f64,
        /// Embedding lookups served GPU-side (pinned + dynamic hits).
        hits: u64,
        /// Embedding lookups fetched from the CPU master copy.
        misses: u64,
        /// Simulated seconds charged by this batch, per phase.
        phases: PhaseSeconds,
    },
    /// A node-local informational marker (no simulated-time charge):
    /// worker lifecycle points (`join`, `task`, `crash-inject`, ...)
    /// shipped to the coordinator by the observability plane.
    Mark {
        /// Step count the marker is anchored to (coordinator clock).
        step: u64,
        /// What happened (`join`, `task`, `crash-inject`, `rejoin`).
        label: String,
        /// Free-form detail (epoch, shard, batch counts, ...).
        detail: String,
    },
    /// An alert rule fired. Alert firings are journal events themselves,
    /// so merged journals and traces carry the SLO story inline.
    Alert {
        /// Step at which the rule fired.
        step: u64,
        /// Rule id (`heartbeat-gap`, `reshard-storm`, `hit-rate`,
        /// `steps-per-sec`).
        rule: String,
        /// Human-readable firing message.
        message: String,
        /// The observed value that crossed the threshold.
        value: f64,
        /// The configured threshold.
        threshold: f64,
    },
    /// Serve-run trailer: totals, emitted once, last.
    ServeEnd {
        /// Requests completed.
        completed: u64,
        /// Requests rejected at the bounded queue.
        rejected: u64,
        /// Median request latency, milliseconds.
        p50_ms: f64,
        /// 95th-percentile request latency, milliseconds.
        p95_ms: f64,
        /// 99th-percentile request latency, milliseconds.
        p99_ms: f64,
        /// Completed requests per simulated second.
        throughput_rps: f64,
        /// Fraction of embedding lookups served GPU-side.
        hit_rate: f64,
        /// Simulated makespan of the serve run, seconds.
        simulated_seconds: f64,
    },
}

impl JournalEvent {
    /// The `"type"` tag this event serializes under.
    pub fn type_tag(&self) -> &'static str {
        match self {
            JournalEvent::RunStart { .. } => "run_start",
            JournalEvent::Step { .. } => "step",
            JournalEvent::Sync { .. } => "sync",
            JournalEvent::Charge { .. } => "charge",
            JournalEvent::Eval { .. } => "eval",
            JournalEvent::Fault { .. } => "fault",
            JournalEvent::Recovery { .. } => "recovery",
            JournalEvent::NodeJoin { .. } => "node_join",
            JournalEvent::NodeLost { .. } => "node_lost",
            JournalEvent::Reshard { .. } => "reshard",
            JournalEvent::RunEnd { .. } => "run_end",
            JournalEvent::ServeStart { .. } => "serve_start",
            JournalEvent::ServeBatch { .. } => "serve_batch",
            JournalEvent::Mark { .. } => "mark",
            JournalEvent::Alert { .. } => "alert",
            JournalEvent::ServeEnd { .. } => "serve_end",
        }
    }

    /// The per-phase simulated charge this event carries, if any.
    pub fn phases(&self) -> Option<&PhaseSeconds> {
        match self {
            JournalEvent::Step { phases, .. }
            | JournalEvent::Sync { phases, .. }
            | JournalEvent::Charge { phases, .. }
            | JournalEvent::Reshard { phases, .. }
            | JournalEvent::ServeBatch { phases, .. } => Some(phases),
            _ => None,
        }
    }

    /// Serializes to a single-line JSON object.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("type".into(), Value::String(self.type_tag().into()));
        match self {
            JournalEvent::RunStart {
                workload,
                seed,
                num_gpus,
                epochs,
                minibatch_size,
                initial_rate,
                workers,
                lookahead,
                stale_skip,
            } => {
                m.insert("workload".into(), Value::String(workload.clone()));
                m.insert("seed".into(), serde_json::to_value(seed));
                m.insert("num_gpus".into(), serde_json::to_value(num_gpus));
                m.insert("epochs".into(), serde_json::to_value(epochs));
                m.insert("minibatch_size".into(), serde_json::to_value(minibatch_size));
                m.insert("initial_rate".into(), serde_json::to_value(initial_rate));
                m.insert("workers".into(), serde_json::to_value(workers));
                m.insert("lookahead".into(), serde_json::to_value(lookahead));
                m.insert("stale_skip".into(), serde_json::to_value(stale_skip));
            }
            JournalEvent::Step { step, mode, rate, loss, phases } => {
                m.insert("step".into(), serde_json::to_value(step));
                m.insert("mode".into(), Value::String(mode.as_str().into()));
                m.insert("rate".into(), serde_json::to_value(rate));
                m.insert("loss".into(), serde_json::to_value(loss));
                m.insert("phases".into(), phases.to_json());
            }
            JournalEvent::Sync { step, direction, bytes, phases } => {
                m.insert("step".into(), serde_json::to_value(step));
                m.insert("direction".into(), Value::String(direction.clone()));
                m.insert("bytes".into(), serde_json::to_value(bytes));
                m.insert("phases".into(), phases.to_json());
            }
            JournalEvent::Charge { step, label, phases } => {
                m.insert("step".into(), serde_json::to_value(step));
                m.insert("label".into(), Value::String(label.clone()));
                m.insert("phases".into(), phases.to_json());
            }
            JournalEvent::Eval {
                step,
                test_loss,
                test_accuracy,
                rate,
                hot_steps,
                cold_steps,
                sim_seconds,
            } => {
                m.insert("step".into(), serde_json::to_value(step));
                m.insert("test_loss".into(), serde_json::to_value(test_loss));
                m.insert("test_accuracy".into(), serde_json::to_value(test_accuracy));
                m.insert("rate".into(), serde_json::to_value(rate));
                m.insert("hot_steps".into(), serde_json::to_value(hot_steps));
                m.insert("cold_steps".into(), serde_json::to_value(cold_steps));
                m.insert("sim_seconds".into(), serde_json::to_value(sim_seconds));
            }
            JournalEvent::Fault { step, kind } => {
                m.insert("step".into(), serde_json::to_value(step));
                m.insert("kind".into(), Value::String(kind.clone()));
            }
            JournalEvent::Recovery { step, action, detail } => {
                m.insert("step".into(), serde_json::to_value(step));
                m.insert("action".into(), Value::String(action.clone()));
                m.insert("detail".into(), Value::String(detail.clone()));
            }
            JournalEvent::NodeJoin { step, node, epoch, state_bytes } => {
                m.insert("step".into(), serde_json::to_value(step));
                m.insert("node".into(), serde_json::to_value(node));
                m.insert("epoch".into(), serde_json::to_value(epoch));
                m.insert("state_bytes".into(), serde_json::to_value(state_bytes));
            }
            JournalEvent::NodeLost { step, node, suspicion } => {
                m.insert("step".into(), serde_json::to_value(step));
                m.insert("node".into(), serde_json::to_value(node));
                m.insert("suspicion".into(), serde_json::to_value(suspicion));
            }
            JournalEvent::Reshard { step, node, live, phases } => {
                m.insert("step".into(), serde_json::to_value(step));
                m.insert("node".into(), serde_json::to_value(node));
                m.insert("live".into(), serde_json::to_value(live));
                m.insert("phases".into(), phases.to_json());
            }
            JournalEvent::RunEnd {
                steps,
                hot_steps,
                cold_steps,
                transitions,
                simulated_seconds,
                final_accuracy,
                final_rate,
                interrupted,
            } => {
                m.insert("steps".into(), serde_json::to_value(steps));
                m.insert("hot_steps".into(), serde_json::to_value(hot_steps));
                m.insert("cold_steps".into(), serde_json::to_value(cold_steps));
                m.insert("transitions".into(), serde_json::to_value(transitions));
                m.insert("simulated_seconds".into(), serde_json::to_value(simulated_seconds));
                m.insert("final_accuracy".into(), serde_json::to_value(final_accuracy));
                m.insert("final_rate".into(), serde_json::to_value(final_rate));
                m.insert("interrupted".into(), serde_json::to_value(interrupted));
            }
            JournalEvent::ServeStart {
                workload,
                seed,
                workers,
                max_batch,
                max_delay_us,
                queue_cap,
            } => {
                m.insert("workload".into(), Value::String(workload.clone()));
                m.insert("seed".into(), serde_json::to_value(seed));
                m.insert("workers".into(), serde_json::to_value(workers));
                m.insert("max_batch".into(), serde_json::to_value(max_batch));
                m.insert("max_delay_us".into(), serde_json::to_value(max_delay_us));
                m.insert("queue_cap".into(), serde_json::to_value(queue_cap));
            }
            JournalEvent::Mark { step, label, detail } => {
                m.insert("step".into(), serde_json::to_value(step));
                m.insert("label".into(), Value::String(label.clone()));
                m.insert("detail".into(), Value::String(detail.clone()));
            }
            JournalEvent::Alert { step, rule, message, value, threshold } => {
                m.insert("step".into(), serde_json::to_value(step));
                m.insert("rule".into(), Value::String(rule.clone()));
                m.insert("message".into(), Value::String(message.clone()));
                m.insert("value".into(), serde_json::to_value(value));
                m.insert("threshold".into(), serde_json::to_value(threshold));
            }
            JournalEvent::ServeBatch { batch, worker, size, start_s, hits, misses, phases } => {
                m.insert("batch".into(), serde_json::to_value(batch));
                m.insert("worker".into(), serde_json::to_value(worker));
                m.insert("size".into(), serde_json::to_value(size));
                m.insert("start_s".into(), serde_json::to_value(start_s));
                m.insert("hits".into(), serde_json::to_value(hits));
                m.insert("misses".into(), serde_json::to_value(misses));
                m.insert("phases".into(), phases.to_json());
            }
            JournalEvent::ServeEnd {
                completed,
                rejected,
                p50_ms,
                p95_ms,
                p99_ms,
                throughput_rps,
                hit_rate,
                simulated_seconds,
            } => {
                m.insert("completed".into(), serde_json::to_value(completed));
                m.insert("rejected".into(), serde_json::to_value(rejected));
                m.insert("p50_ms".into(), serde_json::to_value(p50_ms));
                m.insert("p95_ms".into(), serde_json::to_value(p95_ms));
                m.insert("p99_ms".into(), serde_json::to_value(p99_ms));
                m.insert("throughput_rps".into(), serde_json::to_value(throughput_rps));
                m.insert("hit_rate".into(), serde_json::to_value(hit_rate));
                m.insert("simulated_seconds".into(), serde_json::to_value(simulated_seconds));
            }
        }
        Value::Object(m)
    }

    /// Parses one journal line's value tree.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let tag = v.get("type").and_then(Value::as_str).ok_or("journal event: missing \"type\"")?;
        let get_u64 = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{tag}: missing or non-integer \"{key}\""))
        };
        let get_f64 = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{tag}: missing or non-numeric \"{key}\""))
        };
        let get_str = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{tag}: missing or non-string \"{key}\""))
        };
        let get_phases = || -> Result<PhaseSeconds, String> {
            PhaseSeconds::from_json(v.get("phases").ok_or(format!("{tag}: missing \"phases\""))?)
        };
        let get_rate_opt = |key: &str| -> Result<Option<u32>, String> {
            match v.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(r) => r
                    .as_u64()
                    .map(|u| Some(u as u32))
                    .ok_or_else(|| format!("{tag}: non-integer \"{key}\"")),
            }
        };
        Ok(match tag {
            "run_start" => JournalEvent::RunStart {
                workload: get_str("workload")?,
                seed: get_u64("seed")?,
                num_gpus: get_u64("num_gpus")? as usize,
                epochs: get_u64("epochs")? as usize,
                minibatch_size: get_u64("minibatch_size")? as usize,
                initial_rate: get_u64("initial_rate")? as u32,
                // Pre-engine journals have no workers field: serial run.
                workers: v.get("workers").and_then(Value::as_u64).unwrap_or(1) as usize,
                // Pre-oracle journals have neither of these: both off.
                lookahead: v.get("lookahead").and_then(Value::as_u64).unwrap_or(0),
                stale_skip: v.get("stale_skip").and_then(Value::as_f64).unwrap_or(0.0),
            },
            "step" => JournalEvent::Step {
                step: get_u64("step")?,
                mode: StepMode::parse(&get_str("mode")?)?,
                rate: get_u64("rate")? as u32,
                loss: get_f64("loss")?,
                phases: get_phases()?,
            },
            "sync" => JournalEvent::Sync {
                step: get_u64("step")?,
                direction: get_str("direction")?,
                bytes: get_u64("bytes")?,
                phases: get_phases()?,
            },
            "charge" => JournalEvent::Charge {
                step: get_u64("step")?,
                label: get_str("label")?,
                phases: get_phases()?,
            },
            "eval" => JournalEvent::Eval {
                step: get_u64("step")?,
                test_loss: get_f64("test_loss")?,
                test_accuracy: get_f64("test_accuracy")?,
                rate: get_rate_opt("rate")?,
                hot_steps: get_u64("hot_steps")?,
                cold_steps: get_u64("cold_steps")?,
                sim_seconds: get_f64("sim_seconds")?,
            },
            "fault" => JournalEvent::Fault { step: get_u64("step")?, kind: get_str("kind")? },
            "recovery" => JournalEvent::Recovery {
                step: get_u64("step")?,
                action: get_str("action")?,
                detail: get_str("detail")?,
            },
            "node_join" => JournalEvent::NodeJoin {
                step: get_u64("step")?,
                node: get_u64("node")?,
                epoch: get_u64("epoch")?,
                state_bytes: get_u64("state_bytes")?,
            },
            "node_lost" => JournalEvent::NodeLost {
                step: get_u64("step")?,
                node: get_u64("node")?,
                suspicion: get_u64("suspicion")?,
            },
            "reshard" => JournalEvent::Reshard {
                step: get_u64("step")?,
                node: get_u64("node")?,
                live: get_u64("live")?,
                phases: get_phases()?,
            },
            "run_end" => JournalEvent::RunEnd {
                steps: get_u64("steps")?,
                hot_steps: get_u64("hot_steps")?,
                cold_steps: get_u64("cold_steps")?,
                transitions: get_u64("transitions")?,
                simulated_seconds: get_f64("simulated_seconds")?,
                final_accuracy: get_f64("final_accuracy")?,
                final_rate: get_rate_opt("final_rate")?,
                interrupted: v
                    .get("interrupted")
                    .and_then(|b| match b {
                        Value::Bool(x) => Some(*x),
                        _ => None,
                    })
                    .ok_or("run_end: missing \"interrupted\"")?,
            },
            "serve_start" => JournalEvent::ServeStart {
                workload: get_str("workload")?,
                seed: get_u64("seed")?,
                workers: get_u64("workers")? as usize,
                max_batch: get_u64("max_batch")? as usize,
                max_delay_us: get_u64("max_delay_us")?,
                queue_cap: get_u64("queue_cap")? as usize,
            },
            "mark" => JournalEvent::Mark {
                step: get_u64("step")?,
                label: get_str("label")?,
                detail: get_str("detail")?,
            },
            "alert" => JournalEvent::Alert {
                step: get_u64("step")?,
                rule: get_str("rule")?,
                message: get_str("message")?,
                value: get_f64("value")?,
                threshold: get_f64("threshold")?,
            },
            "serve_batch" => JournalEvent::ServeBatch {
                batch: get_u64("batch")?,
                worker: get_u64("worker")? as usize,
                size: get_u64("size")? as usize,
                start_s: get_f64("start_s")?,
                hits: get_u64("hits")?,
                misses: get_u64("misses")?,
                phases: get_phases()?,
            },
            "serve_end" => JournalEvent::ServeEnd {
                completed: get_u64("completed")?,
                rejected: get_u64("rejected")?,
                p50_ms: get_f64("p50_ms")?,
                p95_ms: get_f64("p95_ms")?,
                p99_ms: get_f64("p99_ms")?,
                throughput_rps: get_f64("throughput_rps")?,
                hit_rate: get_f64("hit_rate")?,
                simulated_seconds: get_f64("simulated_seconds")?,
            },
            other => return Err(format!("unknown journal event type '{other}'")),
        })
    }
}

/// One journal event with its origin coordinates: which node emitted it
/// (`node_id`) and where it sits in that node's emission order (`seq`).
///
/// The origin tag is distinct from the *subject* `node` field of
/// membership events (`node_join`, `node_lost`, `reshard`): those name
/// the wire node the event is about; `node_id` names the journal that
/// produced the line. Convention: the coordinator (and any
/// single-process run) is `node_id` 0, wire worker `k` is `node_id`
/// `k + 1`.
#[derive(Clone, Debug, PartialEq)]
pub struct TaggedEvent {
    /// Originating journal (0 = coordinator / single-process).
    pub node_id: u64,
    /// Position in the originating journal's emission order.
    pub seq: u64,
    /// The event itself.
    pub event: JournalEvent,
}

impl TaggedEvent {
    /// Serializes to the single-line JSON object the journal stores:
    /// the event's own object plus `node_id` and `seq` keys.
    pub fn to_json(&self) -> Value {
        let mut v = self.event.to_json();
        if let Value::Object(m) = &mut v {
            m.insert("node_id".into(), serde_json::to_value(&self.node_id));
            m.insert("seq".into(), serde_json::to_value(&self.seq));
        }
        v
    }

    /// The one-line JSONL form (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(&self.to_json()).unwrap_or_default()
    }

    /// Parses a tagged line's value tree. Legacy lines without the tag
    /// fall back to `node_id` 0 and `seq = fallback_seq`, so pre-plane
    /// journals keep parsing.
    pub fn from_json(v: &Value, fallback_seq: u64) -> Result<Self, String> {
        let event = JournalEvent::from_json(v)?;
        let node_id = v.get("node_id").and_then(Value::as_u64).unwrap_or(0);
        let seq = v.get("seq").and_then(Value::as_u64).unwrap_or(fallback_seq);
        Ok(TaggedEvent { node_id, seq, event })
    }
}

/// An incremental JSONL writer. Every [`write`](JournalWriter::write)
/// appends one line and flushes, so the file on disk is always a valid
/// prefix of the journal — a crash costs at most the line being written.
/// Every line is tagged with the writer's `node_id` and a running `seq`.
#[derive(Debug)]
pub struct JournalWriter {
    out: BufWriter<File>,
    node_id: u64,
    lines: u64,
}

impl JournalWriter {
    /// Creates (truncates) the journal file at `path`, tagging lines as
    /// node 0 (the single-process / coordinator convention).
    pub fn create(path: &Path) -> io::Result<Self> {
        Self::create_for_node(path, 0)
    }

    /// Creates (truncates) the journal file at `path`, tagging lines
    /// with `node_id`.
    pub fn create_for_node(path: &Path, node_id: u64) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(Self { out: BufWriter::new(File::create(path)?), node_id, lines: 0 })
    }

    /// Appends one event (tagged with this writer's node id and the next
    /// sequence number) and flushes it to disk.
    pub fn write(&mut self, event: &JournalEvent) -> io::Result<()> {
        let tagged = TaggedEvent { node_id: self.node_id, seq: self.lines, event: event.clone() };
        self.write_raw_line(&tagged.to_line())
    }

    /// Appends one pre-serialized JSONL line verbatim (already tagged at
    /// its origin — used when the coordinator persists shipped worker
    /// events without re-tagging them).
    pub fn write_raw_line(&mut self, line: &str) -> io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()?;
        self.lines += 1;
        Ok(())
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

/// Parses a journal text (JSONL) keeping origin tags. Blank lines are
/// skipped; a torn final line (crash mid-write) is tolerated and
/// dropped, but a malformed line anywhere else is an error. Legacy
/// untagged lines come back as node 0 with `seq` equal to their
/// position in the file, so pre-plane journals merge like a single-node
/// stream.
pub fn parse_tagged_journal(text: &str) -> Result<Vec<TaggedEvent>, String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut events = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) if i + 1 == lines.len() => {
                eprintln!("journal: dropping torn final line: {e}");
                break;
            }
            Err(e) => return Err(format!("journal line {}: {e}", i + 1)),
        };
        events.push(
            TaggedEvent::from_json(&value, events.len() as u64)
                .map_err(|e| format!("journal line {}: {e}", i + 1))?,
        );
    }
    Ok(events)
}

/// Reads and parses a journal file keeping origin tags.
pub fn read_tagged_journal(path: &Path) -> Result<Vec<TaggedEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_tagged_journal(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<JournalEvent> {
        let mut t0 = Timeline::new();
        let mut t1 = Timeline::new();
        t1.add(Phase::DenseForward, 0.25);
        t1.add(Phase::AllReduce, 0.5);
        vec![
            JournalEvent::RunStart {
                workload: "tiny-test".into(),
                seed: 7,
                num_gpus: 4,
                epochs: 1,
                minibatch_size: 64,
                initial_rate: 50,
                workers: 2,
                lookahead: 0,
                stale_skip: 0.0,
            },
            JournalEvent::Step {
                step: 1,
                mode: StepMode::Cold,
                rate: 50,
                loss: 0.693,
                phases: PhaseSeconds::delta(&t0, &t1),
            },
            JournalEvent::Sync {
                step: 1,
                direction: "refresh".into(),
                bytes: 1 << 20,
                phases: {
                    t0 = t1.clone();
                    t1.add(Phase::EmbedSync, 0.125);
                    PhaseSeconds::delta(&t0, &t1)
                },
            },
            JournalEvent::Charge {
                step: 2,
                label: "reshard".into(),
                phases: PhaseSeconds([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0625]),
            },
            JournalEvent::Eval {
                step: 2,
                test_loss: 0.69,
                test_accuracy: 0.55,
                rate: Some(25),
                hot_steps: 1,
                cold_steps: 1,
                sim_seconds: 0.9375,
            },
            JournalEvent::Fault { step: 2, kind: "device-loss".into() },
            JournalEvent::Recovery {
                step: 2,
                action: "shrank-replicas".into(),
                detail: "4 -> 3".into(),
            },
            JournalEvent::NodeLost { step: 2, node: 1, suspicion: 3 },
            JournalEvent::Reshard {
                step: 2,
                node: 1,
                live: 1,
                phases: PhaseSeconds([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.03125]),
            },
            JournalEvent::NodeJoin { step: 2, node: 1, epoch: 2, state_bytes: 1 << 16 },
            JournalEvent::RunEnd {
                steps: 2,
                hot_steps: 1,
                cold_steps: 1,
                transitions: 2,
                simulated_seconds: 0.9375,
                final_accuracy: 0.55,
                final_rate: Some(25),
                interrupted: false,
            },
            JournalEvent::ServeStart {
                workload: "tiny-test".into(),
                seed: 7,
                workers: 2,
                max_batch: 32,
                max_delay_us: 2000,
                queue_cap: 1024,
            },
            JournalEvent::ServeBatch {
                batch: 1,
                worker: 0,
                size: 32,
                start_s: 0.002,
                hits: 120,
                misses: 8,
                phases: PhaseSeconds([1e-4, 2e-4, 0.0, 0.0, 5e-5, 0.0, 0.0, 5e-5]),
            },
            JournalEvent::ServeEnd {
                completed: 32,
                rejected: 0,
                p50_ms: 1.5,
                p95_ms: 2.75,
                p99_ms: 3.0,
                throughput_rps: 8000.0,
                hit_rate: 0.9375,
                simulated_seconds: 0.004,
            },
            JournalEvent::Mark {
                step: 3,
                label: "task".into(),
                detail: "shard=1 batches=8".into(),
            },
            JournalEvent::Alert {
                step: 2,
                rule: "heartbeat-gap".into(),
                message: "node 1 lost after 3 missed deadlines".into(),
                value: 3.0,
                threshold: 2.0,
            },
        ]
    }

    #[test]
    fn events_round_trip_through_json() {
        for e in sample_events() {
            let back = JournalEvent::from_json(&e.to_json()).expect("round trip");
            assert_eq!(back, e);
        }
    }

    #[test]
    fn writer_reader_round_trip() {
        let dir = std::env::temp_dir().join("fae-telemetry-journal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let events = sample_events();
        let mut w = JournalWriter::create(&path).unwrap();
        for e in &events {
            w.write(e).unwrap();
        }
        assert_eq!(w.lines(), events.len() as u64);
        let back: Vec<_> =
            read_tagged_journal(&path).unwrap().into_iter().map(|t| t.event).collect();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, events);
    }

    #[test]
    fn torn_final_line_is_tolerated() {
        let events = sample_events();
        let mut text = String::new();
        for e in &events {
            text.push_str(&serde_json::to_string(&e.to_json()).unwrap());
            text.push('\n');
        }
        text.push_str("{\"type\":\"step\",\"ste"); // torn mid-write
        let back = parse_tagged_journal(&text).expect("torn tail tolerated");
        assert_eq!(back.into_iter().map(|t| t.event).collect::<Vec<_>>(), events);
    }

    #[test]
    fn malformed_interior_line_is_an_error() {
        let text = "not json\n{\"type\":\"fault\",\"step\":1,\"kind\":\"device-loss\"}\n";
        assert!(parse_tagged_journal(text).is_err());
    }

    #[test]
    fn phase_delta_and_total() {
        let mut a = Timeline::new();
        a.add(Phase::Optimizer, 1.0);
        let mut b = a.clone();
        b.add(Phase::Optimizer, 0.5);
        b.add(Phase::Transfer, 0.25);
        let d = PhaseSeconds::delta(&a, &b);
        assert_eq!(d.get(Phase::Optimizer), 0.5);
        assert_eq!(d.get(Phase::Transfer), 0.25);
        assert_eq!(d.get(Phase::Backward), 0.0);
        assert!((d.total() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn pre_engine_run_start_parses_as_one_worker() {
        let line = "{\"type\":\"run_start\",\"workload\":\"w\",\"seed\":1,\"num_gpus\":2,\
                    \"epochs\":1,\"minibatch_size\":64,\"initial_rate\":50}";
        let v: Value = serde_json::from_str(line).unwrap();
        match JournalEvent::from_json(&v).unwrap() {
            JournalEvent::RunStart { workers, .. } => assert_eq!(workers, 1),
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn unknown_event_type_is_rejected() {
        let v: Value = serde_json::from_str("{\"type\":\"mystery\"}").unwrap();
        assert!(JournalEvent::from_json(&v).is_err());
    }

    #[test]
    fn written_lines_carry_node_id_and_seq() {
        let dir = std::env::temp_dir().join("fae-telemetry-journal-tag");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tagged.jsonl");
        let mut w = JournalWriter::create_for_node(&path, 3).unwrap();
        for e in sample_events().iter().take(4) {
            w.write(e).unwrap();
        }
        let tagged = read_tagged_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(tagged.len(), 4);
        for (i, t) in tagged.iter().enumerate() {
            assert_eq!(t.node_id, 3);
            assert_eq!(t.seq, i as u64);
        }
        // The plain parser reads the same file, dropping the tags.
        assert_eq!(tagged[0].event.type_tag(), "run_start");
    }

    #[test]
    fn default_writer_tags_node_zero() {
        let dir = std::env::temp_dir().join("fae-telemetry-journal-tag0");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("n0.jsonl");
        let mut w = JournalWriter::create(&path).unwrap();
        w.write(&JournalEvent::Fault { step: 1, kind: "device-loss".into() }).unwrap();
        let tagged = read_tagged_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(tagged[0].node_id, 0);
        assert_eq!(tagged[0].seq, 0);
    }

    #[test]
    fn legacy_untagged_lines_parse_as_node_zero_in_file_order() {
        let text = "{\"type\":\"fault\",\"step\":1,\"kind\":\"device-loss\"}\n\
                    {\"type\":\"recovery\",\"step\":1,\"action\":\"a\",\"detail\":\"d\"}\n";
        let tagged = parse_tagged_journal(text).unwrap();
        assert_eq!(tagged.len(), 2);
        assert_eq!((tagged[0].node_id, tagged[0].seq), (0, 0));
        assert_eq!((tagged[1].node_id, tagged[1].seq), (0, 1));
    }

    #[test]
    fn tagged_round_trip_preserves_origin() {
        let t = TaggedEvent {
            node_id: 2,
            seq: 17,
            event: JournalEvent::Mark { step: 5, label: "task".into(), detail: "x".into() },
        };
        let v: Value = serde_json::from_str(&t.to_line()).unwrap();
        let back = TaggedEvent::from_json(&v, 0).unwrap();
        assert_eq!(back, t);
    }
}
