//! `fae-wallbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a run header (host, build, seed, repetitions), a summary of the
//! timing samples, and as the last line one JSON object with the output
//! checks and the metrics: the end-to-end metrics untraced, the per-layer
//! metrics traced. A traced run also writes its spans as a Chrome trace
//! under `out/` in this package. `--workload all` runs every workload in
//! a process of its own, so that each one's peak memory is its own, and
//! ends with one object holding every workload's metrics as
//! `<workload>/<metric>`.

use std::process::{Command, ExitCode};

use fae_wallbench::{run, trace, Outcome, Plan, Workload, DEFAULT_SEED};

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: DEFAULT_SEED, seconds: 30.0, traced: false };
    let mut workload = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = true;
                if value != "all" {
                    let w = Workload::parse(&value);
                    args.workload = Some(w.ok_or_else(|| format!("unknown workload `{value}`"))?);
                }
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// `rustc -V`, or `unknown`.
fn rustc_version() -> String {
    match Command::new("rustc").arg("-V").output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".into(),
    }
}

/// The repository's git revision, without looking above the repository:
/// a checkout that is not a git repository reports `unknown`.
fn git_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let output = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", root.join(".."))
        .output();
    match output {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".into(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn header(args: &Args, workload: Workload, out: &Outcome) -> serde_json::Value {
    serde_json::json!({
        "workload": workload.name(),
        "seed": args.seed,
        "pinned": args.seed == DEFAULT_SEED,
        "seconds": args.seconds,
        "traced": args.traced,
        "warmup": out.warmup,
        "repetitions": out.repetitions,
        "host": {
            "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
            "cpu": cpu_model(),
            "rustc": rustc_version(),
            "git_rev": git_rev(),
            "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        },
    })
}

fn json_line(v: &serde_json::Value) -> String {
    serde_json::to_string(v).expect("a JSON value always serializes")
}

fn write_trace(
    args: &Args,
    workload: Workload,
    out: &Outcome,
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.trace.json", workload.name(), args.seed));
    std::fs::write(&path, json_line(&trace::chrome_trace(&out.spans)))?;
    Ok(path)
}

/// Runs one workload in this process and prints its report.
fn run_one(args: &Args, workload: Workload) {
    let plan = Plan::new(workload, args.seed, args.seconds);
    let out = run(&plan, args.traced);

    println!("{}", json_line(&header(args, workload, &out)));
    for s in &out.samples {
        println!("  {}", s.summary());
    }
    for (mode, sig) in &out.signatures {
        println!("  signature {mode}: {sig}");
    }
    for f in &out.checks.failures {
        println!("  FAILED {f}");
    }
    if args.traced {
        match write_trace(args, workload, &out) {
            Ok(path) => println!("  spans: {}", path.display()),
            Err(e) => eprintln!("fae-wallbench: could not write the trace: {e}"),
        }
    }
    let mut metrics = serde_json::Map::new();
    for m in &out.metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        metrics.insert(m.name.to_string(), serde_json::json!({ "value": m.value, "unit": m.unit }));
    }
    let result = serde_json::json!({
        "correct": out.checks.failed == 0,
        "attempted": out.checks.attempted,
        "failed": out.checks.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    println!("{}", json_line(&result));
}

/// Runs every workload in a child process of its own, echoing each
/// report, then prints their results merged into one.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = serde_json::Map::new();
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        let text = String::from_utf8_lossy(&child.stdout);
        print!("{text}");
        if !child.status.success() {
            return Err(format!("{} exited with {}", w.name(), child.status));
        }
        let last = text.lines().last().unwrap_or_default();
        let result = serde_json::from_value_str(last).map_err(|e| format!("{}: {e}", w.name()))?;
        let count = |k: &str| result.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        attempted += count("attempted");
        failed += count("failed");
        if let Some(m) = result.get("metrics").and_then(|m| m.as_object()) {
            for (name, value) in m.iter() {
                metrics.insert(format!("{}/{name}", w.name()), value.clone());
            }
        }
    }
    let result = serde_json::json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    println!("{}", json_line(&result));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fae-wallbench: {e}");
            eprintln!(
                "usage: fae-wallbench --workload <kaggle-train|taobao-train|kaggle-serve|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(&args, w),
        None => {
            if let Err(e) = run_all(&args) {
                eprintln!("fae-wallbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
