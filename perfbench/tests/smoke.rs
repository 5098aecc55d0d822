//! Short runs of every workload through the benchmark binary: each must
//! finish with zero failed ops and report exactly the metrics
//! `BENCHMARK.json` declares.

use std::process::Command;

/// The `"name"` values of one top-level section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("sections are arrays")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

/// Runs the benchmark and returns its last standard-output line.
fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_aid_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// Metric names in output order: each is the last quoted string before
/// a `: {"value"`.
fn metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("a metrics object")..];
    let parts: Vec<&str> = metrics.split(": {\"value\"").collect();
    parts[..parts.len() - 1]
        .iter()
        .map(|s| s.rsplit('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

fn check(workload: &str, trace: bool, section: &str) {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, "),
        "{workload}: {line}"
    );
    assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
    assert_eq!(metric_names(&line), declared(section), "{workload}");
}

/// One run at a time: each starts a server and two clients, which is
/// load enough for a small machine.
#[test]
fn every_workload_runs_clean() {
    for workload in ["cold", "warm", "standing"] {
        check(workload, false, "end_to_end");
        check(workload, true, "per_layer");
    }
}

#[test]
fn bad_command_lines_exit_without_a_result() {
    for args in [&["--workload", "hot"][..], &["--seed", "1"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_aid_perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
