//! Self-test of the harness: every workload, untraced and traced, end to end at tiny
//! sizes against a real `gss-server`, checking the result line against BENCHMARK.json.
//!
//! ```text
//! cargo test --release --manifest-path gssbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("gssbench sits in the repo").into()
}

/// The target directory this test was built in (the harness is `<target>/<profile>/gssbench`).
fn target_dir() -> PathBuf {
    let harness = Path::new(env!("CARGO_BIN_EXE_gssbench"));
    harness.ancestors().nth(2).expect("harness sits in <target>/<profile>").into()
}

/// Builds `gss-server` into `target`.
fn server_bin(root: &Path, target: &Path) -> PathBuf {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "gss-server"])
        .args(["--bin", "gss-server"])
        .env("CARGO_TARGET_DIR", target)
        .current_dir(root)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building gss-server failed");
    target.join("release/gss-server")
}

/// The metric names BENCHMARK.json lists under `section`, in order.
fn declared(benchmark: &str, section: &str) -> Vec<String> {
    let start = benchmark.find(&format!("\"{section}\"")).expect("section present");
    let body = &benchmark[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

/// The metric names of a result line, in order.
fn reported(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics present") + 12..];
    metrics
        .split("}, \"")
        .map(|m| m.trim_start_matches('"').split('"').next().unwrap().to_string())
        .collect()
}

#[test]
fn every_workload_runs_end_to_end_at_tiny_sizes() {
    let root = repo_root();
    let benchmark = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let target = target_dir();
    let server = server_bin(&root, &target);
    let data = target.join(format!("selftest-data-{}", std::process::id()));
    // wire_mixed runs here too although BENCHMARK.json does not gate on it.
    let workloads = ["wire_ingest", "wire_query", "wire_mixed", "library_memory"];
    for declared in declared(&benchmark, "workloads") {
        assert!(workloads.contains(&declared.as_str()), "{declared} is not a harness workload");
    }
    for workload in workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_gssbench"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace])
                .arg("--server-bin")
                .arg(&server)
                .arg("--data-dir")
                .arg(&data)
                .arg("--tiny")
                .output()
                .expect("harness runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} trace {trace} failed:\n{stderr}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let line = stdout.lines().last().expect("a result line");
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
            assert!(line.contains("\"failed\": 0,"), "{line}");
            assert_eq!(reported(line), declared(&benchmark, section), "{workload} trace {trace}");
            if trace == "1" {
                let coverage = line.split("\"trace.coverage\": {\"value\": ").nth(1).unwrap();
                let coverage: f64 = coverage[..coverage.find(',').unwrap()].parse().unwrap();
                assert!(coverage >= 0.9, "{workload}: trace.coverage {coverage} below 0.9");
            }
        }
    }
    assert!(!data.exists(), "the harness removes its data directory");
}
