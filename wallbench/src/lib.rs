//! Wall-clock benchmark of the FAE pipeline.
//!
//! An untraced run ([`e2e`]) measures what a user of the system sees:
//! set-up time, training and serving throughput, and the outputs that
//! must not change. A traced run ([`trace`]) replays the same workload
//! through each layer's public functions and times every call from here,
//! so nothing inside the program is instrumented. Both check the
//! program's outputs and count every failed check against the operations
//! attempted. `README.md` beside this package says what each workload and
//! metric is for.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

mod e2e;
mod stats;
pub mod trace;
mod workload;

pub use stats::Samples;
pub use workload::{Size, Workload, DEFAULT_SEED};

/// What one run measures.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// How much work each repetition does.
    pub size: Size,
    /// Per mode, the signature this run must reproduce (empty: none).
    pub pins: Vec<(String, String)>,
}

impl Plan {
    /// The full-size plan, pinned when `seed` is [`DEFAULT_SEED`].
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        let pins = if seed == DEFAULT_SEED {
            workload::pinned(workload).iter().map(|(m, s)| (m.to_string(), s.to_string())).collect()
        } else {
            Vec::new()
        };
        Self { workload, seed, seconds, size: Size::full(workload), pins }
    }
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records `attempted` operations of which `failed` failed.
    pub fn record(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(what());
        }
    }
}

/// Output signatures per mode: the first run of a mode fixes its
/// signature, later runs must repeat it, and a pinned signature must
/// match it.
#[derive(Debug)]
pub struct Signatures {
    pins: Vec<(String, String)>,
    seen: BTreeMap<String, String>,
}

impl Signatures {
    /// Tracks signatures against `pins`.
    pub fn new(pins: &[(String, String)]) -> Self {
        Self { pins: pins.to_vec(), seen: BTreeMap::new() }
    }

    /// Checks one run's signature for `mode`.
    pub fn check(&mut self, mode: &str, sig: &str) -> Result<(), String> {
        let first = self.seen.entry(mode.to_string()).or_insert_with(|| sig.to_string());
        if first != sig {
            return Err(format!("{mode}: got `{sig}`, an earlier repeat gave `{first}`"));
        }
        match self.pins.iter().find(|(m, _)| m == mode) {
            Some((_, pin)) if pin != sig => Err(format!("{mode}: got `{sig}`, pinned `{pin}`")),
            _ => Ok(()),
        }
    }

    /// The signature each mode produced, in mode order.
    pub fn seen(&self) -> &BTreeMap<String, String> {
        &self.seen
    }
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// The reported numbers.
    pub metrics: Vec<Metric>,
    /// The timing samples behind them.
    pub samples: Vec<Samples>,
    /// Repetitions run before measuring and not counted.
    pub warmup: usize,
    /// Measured repetitions of the workload's main loop.
    pub repetitions: usize,
    /// The signature each mode produced.
    pub signatures: BTreeMap<String, String>,
    /// The spans of a traced run.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// The value of the metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Runs `plan` untraced (end-to-end metrics) or traced (per-layer metrics).
pub fn run(plan: &Plan, traced: bool) -> Outcome {
    if traced {
        trace::run(plan)
    } else {
        e2e::run(plan)
    }
}

/// Peak resident memory of this process so far, MiB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
