//! `gssbench`: one workload of the GSS benchmark per invocation.
//!
//! ```text
//! gssbench --workload NAME --seed N --seconds S --trace 0|1 \
//!          --server-bin PATH --data-dir DIR [--tiny]
//! ```
//!
//! `gssbench/run.sh` builds `gss-server` and this harness and supplies the last two
//! flags. The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). A run that breaks an answer check prints `"correct": false` and exits
//! with 1; a run that cannot measure prints no result and exits with 2.

mod gen;
mod replay;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Report, Sizes};

/// The end-to-end metrics of the result line, in order.
const END_TO_END: [&str; 12] = [
    "ingest_items_per_s",
    "ingest_p50_ms",
    "query_per_s",
    "edge_p50_us",
    "successor_p50_us",
    "precursor_p50_us",
    "edge_weight_ratio",
    "successor_precision",
    "precursor_precision",
    "setup_s",
    "peak_rss_mb",
    "success_ratio",
];

const WORKLOADS: [&str; 4] = ["wire_ingest", "wire_query", "wire_mixed", "library_memory"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    data_dir: PathBuf,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: PathBuf::new(),
        data_dir: PathBuf::from(".bench_data"),
        tiny: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs a number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--server-bin" => args.server_bin = PathBuf::from(value()?),
            "--data-dir" => args.data_dir = PathBuf::from(value()?),
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(ctx: &Ctx, workload: &str) -> Result<Report, String> {
    match workload {
        "wire_ingest" => workloads::wire_ingest(ctx),
        "wire_query" => workloads::wire_query(ctx),
        "wire_mixed" => workloads::wire_mixed(ctx),
        _ => workloads::library_memory(ctx),
    }
}

/// The per-layer metric names, in output order.
const PER_LAYER: [&str; 40] = [
    "protocol.codec_ns_per_item",
    "protocol.codec_ns_per_query",
    "protocol.bytes_per_item",
    "sharded.insert_batch_ms_p50",
    "sharded.insert_batch_ms_p99",
    "sharded.shard_items_skew",
    "sharded.edge_us_p50",
    "sharded.successor_us_p50",
    "sharded.precursor_us_p50",
    "hashing.ns_per_item",
    "sketch.insert_ns_per_item",
    "sketch.load_factor",
    "sketch.buffer_percentage",
    "sketch.bytes",
    "pager.faults_per_item",
    "pager.lookups_per_item",
    "pager.pages_flushed_per_item",
    "pager.faults_per_query.edge",
    "pager.lookups_per_query.edge",
    "pager.faults_per_query.successor",
    "pager.lookups_per_query.successor",
    "pager.faults_per_query.precursor",
    "pager.lookups_per_query.precursor",
    "pager.hit_ratio",
    "pager.latch_waits_per_s",
    "wal.bytes_per_item",
    "wal.group_commits_per_s",
    "wal.group_wait_ratio",
    "wal.fsyncs_per_s",
    "wal.flushes_per_item",
    "wal.checkpoint_ms",
    "persistence.reopen_s",
    "store.disk_bytes_per_item",
    "trace.coverage",
    "trace.overhead",
    "server.call_overhead_us.ingest",
    "server.call_overhead_us.edge",
    "server.call_overhead_us.successor",
    "server.call_overhead_us.precursor",
    "loadgen.lag_p99_ms",
];

/// The result line: every value finite and every expected metric present once, in order.
fn result_json(report: &Report, expected: &[&str]) -> Result<String, String> {
    let names: Vec<&String> = report.metrics.iter().map(|(n, _, _)| n).collect();
    if names.len() != expected.len() || names.iter().zip(expected).any(|(a, b)| a.as_str() != *b) {
        return Err(format!("metric set {names:?} differs from {expected:?}"));
    }
    let mut metrics = Vec::new();
    for (name, value, unit) in &report.metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        metrics.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.checker.violations == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("gssbench: {message}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.tiny { Sizes::tiny() } else { Sizes::full() };
    let ctx = Ctx::new(
        args.server_bin,
        args.data_dir.clone(),
        args.seed,
        args.seconds,
        args.trace,
        sizes,
    );
    let outcome = run(&ctx, &args.workload);
    // Each run removes its own directories; the shared parent goes once it is empty.
    let _ = std::fs::remove_dir(&args.data_dir);
    let report = match outcome {
        Ok(report) => report,
        Err(message) => {
            eprintln!("gssbench: {}: {message}", args.workload);
            return ExitCode::from(2);
        }
    };
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, value, unit) in report.metrics.iter().chain(&report.extra) {
        eprintln!("{:<36} {value:>16.6} {unit}", format!("{}.{name}", args.workload));
    }
    let line = match result_json(&report, expected) {
        Ok(line) => line,
        Err(message) => {
            eprintln!("gssbench: {}: {message}", args.workload);
            return ExitCode::from(2);
        }
    };
    println!("{line}");
    match report.checker.first_violation() {
        None => ExitCode::SUCCESS,
        Some(violation) => {
            eprintln!(
                "gssbench: {}: {} answer-check violations, first: {violation}",
                args.workload, report.checker.violations
            );
            ExitCode::from(1)
        }
    }
}
