//! The benchmark's own smoke test: scaled-down instances of all three
//! workloads run through the same code path as the measured runs.
//!
//! Every metric `BENCHMARK.json` lists must be emitted with its unit,
//! every check must pass, and a deliberately wrong pin must make
//! `wrong_verdict_share` non-zero and fail the run.

use std::process::Command;

use dl_obs::json::Json;

const WORKLOADS: [(&str, u64); 3] = [
    ("explore-deep", 0),
    ("fleet-mixed", 13),
    ("fleet-stabilize", 14),
];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(key: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Runs the benchmark; returns its exit success and parsed result line.
fn bench(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--scale", "smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    (
        out.status.success(),
        Json::parse(last).expect("the last line is JSON"),
    )
}

fn emitted(result: &Json) -> Vec<(String, String)> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a numeric value"
            );
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_listed_metric_is_emitted_and_every_check_passes() {
    for (workload, seed) in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (ok, result) = bench(workload, seed, trace, &[]);
            assert!(ok, "{workload} trace={trace} failed: {result:?}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) > 0);
            assert_eq!(emitted(&result), listed(key), "{workload} trace={trace}");
        }
    }
}

#[test]
fn a_wrong_pin_fails_the_run() {
    for (workload, seed) in WORKLOADS {
        for trace in [false, true] {
            let (ok, result) = bench(workload, seed, trace, &["--wrong-pin"]);
            assert!(!ok, "{workload} trace={trace} passed with a wrong pin");
            assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
            let failed = result.get("failed").and_then(Json::as_u64).unwrap_or(0);
            let attempted = result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            assert!(
                failed > 0 && failed <= attempted,
                "{workload}: wrong_verdict_share must be non-zero ({failed}/{attempted})"
            );
        }
    }
}
