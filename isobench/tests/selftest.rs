//! Benchmark self-test: every workload completes at smoke size with no
//! failed op and emits exactly the metric names `BENCHMARK.json` declares,
//! and a corrupted reference value is reported as a failed op.
//!
//! Run with `cargo test --release --manifest-path isobench/Cargo.toml`.

use std::process::Command;

use obs::json::{self, Json};

const WORKLOADS: [&str; 3] = ["validate-threads", "plans-p256", "model-queries"];

/// Run the benchmark; the last line of its standard output, parsed, and
/// its standard error.
fn run_with_stderr(args: &[&str]) -> (Json, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_isobench"))
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "{args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("standard output is UTF-8");
    let last = stdout.lines().last().expect("a result line");
    let result =
        json::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e:?}): {last}"));
    (result, String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Run the benchmark and parse the last line of its standard output.
fn run(args: &[&str]) -> Json {
    run_with_stderr(args).0
}

/// Metric names `BENCHMARK.json` declares under `section`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&doc).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = doc
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {section} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("every metric has a name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

fn num(result: &Json, key: &str) -> f64 {
    result
        .get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("result has a numeric {key}"))
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_completes_at_smoke_size_with_the_declared_metrics() {
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let what = format!("{workload} --trace {trace}");
            let r = run(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--smoke",
            ]);
            assert!(num(&r, "attempted") >= 1.0, "{what}: nothing attempted");
            assert_eq!(num(&r, "failed"), 0.0, "{what}: failed ops");
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{what}");
            let Some(Json::Obj(metrics)) = r.get("metrics") else {
                panic!("{what}: no metrics object")
            };
            let mut names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            names.sort();
            assert_eq!(names, declared(section), "{what}: metric names");
            for (name, m) in metrics {
                assert!(is_metric_name(name), "{what}: bad metric name {name:?}");
                let v = m.get("value").and_then(Json::as_num);
                assert!(v.is_some_and(f64::is_finite), "{what}: {name} = {m:?}");
                assert!(
                    m.get("unit").and_then(Json::as_str).is_some(),
                    "{what}: {name}"
                );
            }
        }
    }
}

#[test]
fn a_corrupted_reference_value_is_a_failed_op() {
    // A full pass checks every reference value, so whichever one the seed
    // corrupts is compared. Another op may fail too (the thread runtime's
    // rare false deadlock), so the test looks for the op that names the
    // corrupted key.
    for seed in ["5", "42"] {
        let (r, stderr) = run_with_stderr(&[
            "--workload",
            "validate-threads",
            "--seed",
            seed,
            "--seconds",
            "0",
            "--trace",
            "0",
            "--corrupt-reference",
        ]);
        let key = stderr
            .lines()
            .find_map(|l| l.strip_prefix("isobench: corrupted reference value "))
            .unwrap_or_else(|| panic!("seed {seed}: no corrupted key reported:\n{stderr}"))
            .trim();
        let failed_on_key = stderr.lines().any(|l| {
            l.starts_with("isobench: op ")
                && l.split_once(" failed: ")
                    .is_some_and(|(_, why)| why.starts_with(&format!("{key}: ")))
        });
        assert!(
            failed_on_key,
            "seed {seed}: no failed op names {key}:\n{stderr}"
        );
        assert!(num(&r, "failed") >= 1.0, "seed {seed}: failed count");
        assert_eq!(r.get("correct"), Some(&Json::Bool(false)), "seed {seed}");
    }
}
