//! The benchmark's own tests: every workload at its tiny size with every
//! check on, the result line against `BENCHMARK.json`, and a corrupted
//! QoS fingerprint caught by the check.

use perfbench::check::Fingerprint;
use perfbench::episode::run_engine;
use perfbench::report::result_line;
use perfbench::run::{check_episodes, run, Run, RunArgs};
use perfbench::workload::Workload;
use serde::Value;
use std::path::PathBuf;

fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    std::fs::create_dir_all(&dir).expect("test output directory");
    dir
}

fn tiny(workload: Workload, trace: bool) -> Run {
    run(&RunArgs {
        workload,
        seed: 3,
        seconds: 1e-3,
        trace,
        size: workload.tiny_size(),
        out_dir: out_dir(&format!("{}-{}", workload.name(), u8::from(trace))),
    })
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(section: &str) -> Vec<String> {
    match benchmark_json().get(section) {
        Some(Value::Seq(items)) => items
            .iter()
            .map(|m| match m.get("name") {
                Some(Value::Str(name)) => name.clone(),
                other => panic!("{section} entry without a name: {other:?}"),
            })
            .collect(),
        other => panic!("BENCHMARK.json has no {section} list: {other:?}"),
    }
}

/// The run passed its checks and reports exactly `section`'s metrics,
/// every one a finite number and every time above zero.
fn assert_reports(run: &Run, section: &str) {
    assert!(run.correct(), "checks failed: {:?}", run.failures);
    assert_eq!(
        run.failed(),
        0,
        "decisions failed: {:?}",
        run.decision_failures
    );
    assert!(run.attempted > 0);
    let reported: Vec<&str> = run.metrics.iter().map(|m| m.name).collect();
    assert_eq!(reported, names(section));
    for m in &run.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        if matches!(m.unit, "s" | "ms" | "us") {
            assert!(m.value > 0.0, "time {} reads {}", m.name, m.value);
        }
    }
    let line: Value = serde_json::from_str(&result_line(run)).expect("result line is JSON");
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
}

#[test]
fn benchmark_json_names_every_workload() {
    let listed: Vec<String> = match benchmark_json().get("workloads") {
        Some(Value::Seq(items)) => items
            .iter()
            .filter_map(|w| match w.get("name") {
                Some(Value::Str(name)) => Some(name.clone()),
                _ => None,
            })
            .collect(),
        other => panic!("no workloads list: {other:?}"),
    };
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed, ours);
}

#[test]
fn serve_paper16_untraced_and_traced() {
    assert_reports(&tiny(Workload::ServePaper16, false), "end_to_end");
    assert_reports(&tiny(Workload::ServePaper16, true), "per_layer");
}

#[test]
fn steady_aiot4096_untraced_and_traced() {
    assert_reports(&tiny(Workload::SteadyAiot4096, false), "end_to_end");
    assert_reports(&tiny(Workload::SteadyAiot4096, true), "per_layer");
}

#[test]
fn repair_aiot256_untraced_and_traced() {
    assert_reports(&tiny(Workload::RepairAiot256, false), "end_to_end");
    assert_reports(&tiny(Workload::RepairAiot256, true), "per_layer");
}

#[test]
fn a_corrupted_fingerprint_fails_the_check() {
    let workload = Workload::RepairAiot256;
    let size = workload.tiny_size();
    let input = workload.input(3, size);
    let path = out_dir("corrupt").join("checkpoint.json");
    let episodes: Vec<_> = (0..2)
        .map(|_| run_engine(workload, size, &input, false, true, &path))
        .collect();
    let reference = episodes[0].fingerprint();
    assert!(check_episodes(&episodes, &reference).is_empty());

    let corrupted = Fingerprint {
        energy_bits: reference.energy_bits ^ 1,
        ..reference
    };
    let failures = check_episodes(&episodes, &corrupted);
    assert_eq!(failures.len(), episodes.len(), "{failures:?}");
    assert!(failures[0].contains("QoS fingerprint"));
}
