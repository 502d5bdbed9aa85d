//! The benchmark's own tests: seeded generation, class placement of the
//! reported quantiles, and agreement of the printed metric names with
//! `BENCHMARK.json`.

use std::process::Command;

use anonring_bench::json::Value;
use anonring_perfbench::measure::quantile;
use anonring_perfbench::sim::{Probe, SimOp};
use anonring_perfbench::{adversary, lockstep, serve, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn generation_is_deterministic_in_the_seed() {
    let adversary = |seed| format!("{:?}", adversary::round(seed));
    assert_eq!(adversary(7), adversary(7));
    assert_ne!(adversary(7), adversary(8));

    let lockstep = |seed| format!("{:?}", lockstep::round(seed).0);
    assert_eq!(lockstep(7), lockstep(7));
    assert_ne!(lockstep(7), lockstep(8));

    let templates = |seed| format!("{:?}", serve::templates(seed).expect("templates simulate"));
    assert_eq!(templates(7), templates(7));
    assert_ne!(templates(7), templates(8));
}

/// Engine work of each op of one round, from the counting wrappers:
/// candidates scanned by the async scheduler, or lock-step processor
/// steps. Both engines' time is proportional to these counts.
fn work<O: SimOp>(ops: &[O]) -> Vec<(bool, u64)> {
    let mut probe = Probe::default();
    ops.iter()
        .map(|op| {
            let before = probe.candidates + probe.sync_steps;
            op.run(Some(&mut probe)).expect("op passes its checks");
            (op.heavy(), probe.candidates + probe.sync_steps - before)
        })
        .collect()
}

/// The median op must be light and the 90th-percentile op heavy, with
/// every heavy op doing more work than any light one.
fn assert_classes(name: &str, work: &[(bool, u64)]) {
    let light_max = work
        .iter()
        .filter(|w| !w.0)
        .map(|w| w.1)
        .max()
        .expect("light ops");
    let heavy_min = work
        .iter()
        .filter(|w| w.0)
        .map(|w| w.1)
        .min()
        .expect("heavy ops");
    assert!(
        light_max < heavy_min,
        "{name}: light {light_max} >= heavy {heavy_min}"
    );
    let costs: Vec<f64> = work.iter().map(|w| w.1 as f64).collect();
    let p50 = quantile(&costs, 0.5);
    let p90 = quantile(&costs, 0.9);
    assert!(p50 < heavy_min as f64, "{name}: p50 op {p50} is heavy");
    assert!(p90 > light_max as f64, "{name}: p90 op {p90} is light");
}

#[test]
fn median_op_is_light_and_p90_op_is_heavy() {
    assert_classes("sim-adversary", &work(&adversary::round(1)));
    assert_classes("sim-lockstep", &work(&lockstep::round(1).0));
}

fn names(section: &Value) -> Vec<(String, String)> {
    section
        .as_array()
        .expect("an array")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs the benchmark binary briefly and returns its last line's metric
/// names and units.
fn printed(trace: &str) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_anonring-perfbench"))
        .args([
            "--workload",
            "serve",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = Value::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)), "{stdout}");
    let Some(Value::Object(metrics)) = last.get("metrics") else {
        panic!("no metrics object: {stdout}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let spec = benchmark_json();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let end_to_end = names(spec.get("end_to_end").expect("end_to_end"));
    let per_layer = names(spec.get("per_layer").expect("per_layer"));
    assert_eq!(end_to_end, own(&END_TO_END));
    assert_eq!(per_layer, own(&PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let sorted = |mut v: Vec<(String, String)>| {
        v.sort();
        v
    };
    assert_eq!(sorted(printed("0")), sorted(end_to_end));
    assert_eq!(sorted(printed("1")), sorted(per_layer));
}
