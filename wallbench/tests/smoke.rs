//! The benchmark's own checks, at a smoke size.

use std::collections::BTreeMap;

use fae_wallbench::trace::{self_ms_by_name, STEP_LAYERS};
use fae_wallbench::{run, Outcome, Plan, Size, Workload};

fn smoke(workload: Workload, seed: u64, seconds: f64) -> Plan {
    Plan { workload, seed, seconds, size: Size::smoke(workload), pins: Vec::new() }
}

/// `name → unit` of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside this package");
    let json = serde_json::from_value_str(&text).expect("BENCHMARK.json parses");
    let entries = json.get(list).and_then(|v| v.as_array()).expect("metric list present");
    entries
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(|v| v.as_str()).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(out: &Outcome) -> BTreeMap<String, String> {
    let map: BTreeMap<String, String> =
        out.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
    assert_eq!(map.len(), out.metrics.len(), "a metric is emitted twice");
    assert!(out.metrics.iter().all(|m| m.value.is_finite()), "every value is a number");
    map
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for w in Workload::ALL {
        let untraced = run(&smoke(w, 3, 0.01), false);
        assert_eq!(emitted(&untraced), end_to_end, "{}: end-to-end metrics", w.name());
        assert!(
            untraced.metrics.iter().all(|m| m.value > 0.0),
            "{}: an end-to-end metric is 0",
            w.name()
        );
        let traced = run(&smoke(w, 3, 0.01), true);
        assert_eq!(emitted(&traced), per_layer, "{}: per-layer metrics", w.name());
    }
}

#[test]
fn a_wrong_pinned_digest_is_a_failed_operation_not_a_crash() {
    let mut plan = smoke(Workload::TaobaoTrain, 3, 0.01);
    plan.pins = vec![("fae".into(), "digest=00000000 test_loss=0 sim_s=0".into())];
    let out = run(&plan, false);
    // The plain and the journalled FAE run both answer to the pin.
    assert_eq!(out.checks.failed, 2, "{:?}", out.checks.failures);
    assert!(out.checks.attempted > out.checks.failed);
    assert!(out.checks.failures.iter().all(|f| f.contains("pinned")));
    assert!(out.metric("fae_samples_per_s").is_some_and(|v| v > 0.0));
}

#[test]
fn a_held_out_seed_repeats_exactly_and_fails_nothing() {
    for w in [Workload::TaobaoTrain, Workload::KaggleServe] {
        let out = run(&smoke(w, 90_210, 2.0), false);
        assert!(out.repetitions >= 2, "{}: repeats compared: {}", w.name(), out.repetitions);
        assert_eq!(out.checks.failed, 0, "{}: {:?}", w.name(), out.checks.failures);
        assert!(out.signatures.contains_key("fae") && out.signatures.contains_key("baseline"));
    }
}

#[test]
fn layer_self_times_and_unattributed_time_add_up_to_the_step() {
    let out = run(&smoke(Workload::TaobaoTrain, 3, 0.01), true);
    let by_name = self_ms_by_name(&out.spans);
    let steps = by_name["trainer.step"].len() as f64;
    let layers: f64 =
        STEP_LAYERS.iter().filter_map(|s| by_name.get(s)).flatten().sum::<f64>() / steps;
    let step = out.metric("trainer.step_ms").expect("step time");
    let unattributed = out.metric("trainer.unattributed_ms").expect("unattributed time");
    assert!(step > 0.0);
    assert!(
        (layers + unattributed - step).abs() <= 1e-9 * step,
        "{layers} + {unattributed} != {step}"
    );
    // Self time excludes children: the step's own share is what its
    // layers leave over, never negative.
    assert!(by_name["trainer.step"].iter().all(|&v| v >= 0.0));
}
