//! The four workloads. Each builds its inputs from the seed, sets up, measures for the
//! run's seconds, checks every answer and returns its metrics; with tracing on it also
//! replays the run in process to attribute time and counters to layers.

use crate::gen::{self, Answer, Checker, Oracle, Query, StreamGen, Truth, Verb};
use crate::replay::{self, Backing, Step};
use crate::stats::{chunked_quantile, median, quantile, windowed_rate};
use crate::wire::{self, Conn, IngestLog, Limit, QueryLog, Server};
use gss_core::GssBuilder;
use gss_graph::{StreamEdge, SummaryRead, SummaryWrite};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Items per INGEST frame in the closed loops and the preload.
pub const BATCH: usize = 1024;
/// Items per INGEST frame of the preload: smaller than [`BATCH`], so the short preload
/// still yields enough batch latencies for a tail percentile.
pub const PRELOAD_BATCH: usize = 256;
/// Shards of every served tenant.
pub const SHARDS: usize = 2;
/// Connections of the closed loops: two, or fewer on a box with fewer cores.
fn conns() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Input sizes. [`Sizes::full`] is the benchmark; [`Sizes::tiny`] runs the same code
/// on inputs small enough for the harness's own test.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Zipf support and exponent of every stream.
    pub vertices: usize,
    pub exponent: f64,
    /// `wire_ingest`: tenant width (each shard's matrix fits the page cache) and the
    /// length of the stream it replays cyclically.
    pub fit_width: usize,
    pub fit_stream: usize,
    /// `wire_query` / `wire_mixed`: tenant width (each shard's matrix is 8x the page
    /// cache) and preload length.
    pub big_width: usize,
    pub preload: usize,
    /// `wire_mixed`: offered ingest rate (items/s) and items per open-loop batch.
    pub open_rate: f64,
    pub open_batch: usize,
    /// `library_memory`: sketch width and stream length.
    pub lib_width: usize,
    pub lib_stream: usize,
    /// Length of the cyclic query sequence, and of the quiescent answer-check pass
    /// that follows a workload whose measured phase writes.
    pub queries: usize,
    pub check_queries: usize,
    /// Queries of `wire_mixed`'s quiescent accuracy pass on the larger-than-cache tenant.
    pub accuracy_queries: usize,
    /// Set-ups per run (the median is reported) without and with a preload.
    pub setups: usize,
    pub preload_setups: usize,
    /// Queries replayed in process by the traced run.
    pub replay_queries: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            vertices: 100_000,
            exponent: 1.3,
            fit_width: 360,
            fit_stream: 3 << 19,
            big_width: 1024,
            preload: 1 << 18,
            open_rate: 20_000.0,
            open_batch: 64,
            lib_width: 384,
            lib_stream: 1 << 19,
            queries: 1 << 16,
            check_queries: 12000,
            accuracy_queries: 2000,
            setups: 9,
            preload_setups: 3,
            replay_queries: 4000,
        }
    }

    pub fn tiny() -> Self {
        Self {
            vertices: 2000,
            exponent: 1.3,
            fit_width: 64,
            fit_stream: 1 << 13,
            big_width: 128,
            preload: 1 << 13,
            open_rate: 5000.0,
            open_batch: 64,
            lib_width: 64,
            lib_stream: 1 << 12,
            queries: 512,
            check_queries: 300,
            accuracy_queries: 200,
            setups: 2,
            preload_setups: 2,
            replay_queries: 200,
        }
    }
}

/// What one run needs to know.
pub struct Ctx {
    pub server_bin: PathBuf,
    pub data_dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    dirs: std::cell::Cell<u32>,
}

impl Ctx {
    pub fn new(
        server_bin: PathBuf,
        data_dir: PathBuf,
        seed: u64,
        seconds: f64,
        trace: bool,
        sizes: Sizes,
    ) -> Self {
        Self { server_bin, data_dir, seed, seconds, trace, sizes, dirs: 0.into() }
    }

    /// A fresh directory under the run's data directory.
    pub fn fresh_dir(&self) -> PathBuf {
        let n = self.dirs.get();
        self.dirs.set(n + 1);
        self.data_dir.join(format!("{}-{n}", std::process::id()))
    }

    /// How long the measured phase runs: the whole run untraced, half of it traced,
    /// where the in-process replay takes the rest.
    fn measure(&self) -> Duration {
        Duration::from_secs_f64(if self.trace { self.seconds / 2.0 } else { self.seconds })
    }
}

/// A run's result: its metrics plus the operation and answer accounting.
#[derive(Default)]
pub struct Report {
    /// The metrics of the result line.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Figures printed beside them but too noisy on a small shared box to gate on:
    /// latency tails, the raw ARE and the error ratio.
    pub extra: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub checker: Checker,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn put_extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push((name.to_string(), value, unit));
    }
}

/// Logs a phase boundary to stderr with the time since the first one.
fn phase(what: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let start = START.get_or_init(Instant::now);
    eprintln!("[{:>7.2}s] {what}", start.elapsed().as_secs_f64());
}

fn need(value: Option<f64>, what: &str) -> Result<f64, String> {
    value.ok_or_else(|| format!("no samples for {what}"))
}

/// Answered queries as `(answer time in s, latency in µs)` per verb, and the wall time
/// of the loop that answered them.
#[derive(Default)]
struct QueryTimes {
    latency_us: [Vec<(f64, f64)>; 3],
    wall_s: f64,
}

/// Checks every answered query of `log` against `truth` and splits the latencies by verb.
fn check_queries(
    log: &QueryLog,
    queries: &[Query],
    truth: &Truth,
    checker: &mut Checker,
    report: &mut Report,
) -> QueryTimes {
    let mut times = QueryTimes { wall_s: log.wall_s, ..QueryTimes::default() };
    for record in &log.records {
        let query = &queries[record.index as usize];
        report.attempted += 1;
        match &record.answer {
            Some(answer) => {
                checker.check(query, answer, truth);
                times.latency_us[query.verb() as usize].push((record.at_s, record.latency_us));
            }
            None => report.failed += 1,
        }
    }
    times
}

/// Adds the ingest metrics of `logs`: one measured phase, or the set-up preloads. The
/// rate is the median over time windows of each log, then over logs; latencies are
/// pooled in order.
fn put_ingest(report: &mut Report, logs: &[&IngestLog]) -> Result<(), String> {
    let rates: Vec<f64> = logs.iter().filter_map(|l| windowed_rate(&l.acked, l.wall_s)).collect();
    let rate = median(&rates);
    let mut latency = Vec::new();
    let mut offset = 0.0;
    for log in logs {
        latency.extend(log.latency_ms.iter().map(|&(t, ms)| (offset + t, ms)));
        offset += log.wall_s;
        report.attempted += log.batches + log.failed;
        report.failed += log.failed;
    }
    let pooled: Vec<f64> = latency.iter().map(|s| s.1).collect();
    report.put("ingest_items_per_s", need(rate, "ingest rate")?, "1/s");
    report.put("ingest_p50_ms", need(median(&pooled), "ingest latency")?, "ms");
    report.put_extra("ingest_p99_ms", need(chunked_quantile(&latency, 0.99), "ingest")?, "ms");
    Ok(())
}

fn put_queries(report: &mut Report, times: &QueryTimes, rate: Option<f64>) -> Result<(), String> {
    let rate = rate.or_else(|| {
        let answers: Vec<(f64, f64)> =
            times.latency_us.iter().flatten().map(|&(t, _)| (t, 1.0)).collect();
        windowed_rate(&answers, times.wall_s)
    });
    report.put("query_per_s", need(rate, "query rate")?, "1/s");
    for verb in Verb::ALL {
        let samples = &times.latency_us[verb as usize];
        let pooled: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let name = verb.name();
        report.put(&format!("{name}_p50_us"), need(median(&pooled), name)?, "us");
        report.put_extra(
            &format!("{name}_p99_us"),
            need(chunked_quantile(samples, 0.99), name)?,
            "us",
        );
    }
    Ok(())
}

fn put_accuracy(report: &mut Report, checker: &Checker) -> Result<(), String> {
    let ratio = need(checker.edge_weight_ratio(), "true-edge answers")?;
    report.put("edge_weight_ratio", ratio, "ratio");
    report.put_extra("edge_are", ratio - 1.0, "ratio");
    for (name, verb) in
        [("successor_precision", Verb::Successor), ("precursor_precision", Verb::Precursor)]
    {
        report.put(name, need(checker.precision(verb), name)?, "ratio");
    }
    Ok(())
}

fn put_tail(report: &mut Report, setup_s: &[f64], peak_rss_mb: f64) -> Result<(), String> {
    report.put("setup_s", need(median(setup_s), "set-up")?, "s");
    report.put("peak_rss_mb", peak_rss_mb, "MiB");
    let ok = report.attempted - report.failed;
    report.put("success_ratio", ok as f64 / report.attempted.max(1) as f64, "ratio");
    report.put_extra("error_ratio", report.failed as f64 / report.attempted.max(1) as f64, "ratio");
    Ok(())
}

/// Checks the server's account after the run: every item sent acknowledged and
/// inserted, none breached.
fn check_account(conn: &mut Conn, items_sent: u64, checker: &mut Checker) -> Result<(), String> {
    let stats = conn.stats()?;
    if stats.acked_items != items_sent || stats.items_inserted != items_sent {
        checker.violate(format!(
            "STATS acked {} / inserted {} items, {items_sent} sent",
            stats.acked_items, stats.items_inserted
        ));
    }
    if stats.breached_items > 0 || stats.poisoned {
        checker.violate(format!("STATS reports {} breached items", stats.breached_items));
    }
    Ok(())
}

/// The inputs of a workload on a preloaded, larger-than-cache tenant.
struct Preloaded {
    gen: StreamGen,
    items: Vec<StreamEdge>,
    frames: Vec<Vec<u8>>,
    sizes: Vec<usize>,
    oracle: Oracle,
    queries: Vec<Query>,
    query_frames: Vec<Vec<u8>>,
}

fn frame_sizes(items: &[StreamEdge], batch: usize) -> Vec<usize> {
    items.chunks(batch).map(<[StreamEdge]>::len).collect()
}

fn query_frames(queries: &[Query]) -> Vec<Vec<u8>> {
    queries.iter().map(|q| gss_server::protocol::encode_request(&wire::query_request(q))).collect()
}

impl Preloaded {
    fn new(ctx: &Ctx) -> Self {
        let s = &ctx.sizes;
        let mut gen = StreamGen::new(ctx.seed, s.vertices, s.exponent);
        let items = gen.take(s.preload);
        let mut oracle = Oracle::new();
        oracle.add(&items);
        let queries = gen::queries(ctx.seed, &oracle, s.queries);
        Self {
            frames: wire::ingest_frames(&items, PRELOAD_BATCH),
            sizes: frame_sizes(&items, PRELOAD_BATCH),
            query_frames: query_frames(&queries),
            gen,
            items,
            oracle,
            queries,
        }
    }
}

/// Sets the tenant up `reps` times (launch, open, preload) and keeps the last server.
/// Returns it with every set-up time and every preload log.
fn set_up(
    ctx: &Ctx,
    width: usize,
    reps: usize,
    preload: Option<&Preloaded>,
) -> Result<(Server, Vec<f64>, Vec<IngestLog>), String> {
    let mut times = Vec::new();
    let mut logs = Vec::new();
    let mut server = None;
    for _ in 0..reps {
        drop(server.take());
        let start = Instant::now();
        let launched = Server::launch(&ctx.server_bin, ctx.fresh_dir(), SHARDS, width)?;
        // The first HELLO opens the tenant's store.
        Conn::open(launched.addr)?;
        if let Some(p) = preload {
            let limit = Limit { requests: Some(p.frames.len() as u64), deadline: None };
            let (_, log) = wire::closed_ingest(launched.addr, conns(), &p.frames, &p.sizes, limit)?;
            logs.push(log);
        }
        times.push(start.elapsed().as_secs_f64());
        server = Some(launched);
    }
    Ok((server.expect("at least one set-up"), times, logs))
}

/// `wire_ingest`: closed-loop ingest on 2 connections into a tenant whose shards fit the
/// page cache, replaying a fixed Zipf stream cyclically so the load factor levels off.
pub fn wire_ingest(ctx: &Ctx) -> Result<Report, String> {
    let s = &ctx.sizes;
    let stream = StreamGen::new(ctx.seed, s.vertices, s.exponent).take(s.fit_stream);
    let frames = wire::ingest_frames(&stream, BATCH);
    let sizes = frame_sizes(&stream, BATCH);
    let mut oracle = Oracle::new();
    oracle.add(&stream);
    let queries = gen::queries(ctx.seed, &oracle, s.check_queries);
    let qframes = query_frames(&queries);
    phase("inputs ready");
    let (server, setup_s, _) = set_up(ctx, s.fit_width, s.setups, None)?;
    phase("set up");
    let limit = Limit { requests: None, deadline: Some(Instant::now() + ctx.measure()) };
    let (sent, log) = wire::closed_ingest(server.addr, conns(), &frames, &sizes, limit)?;
    phase("measured");
    // A checkpoint settles the log and dirty pages, so the query pass starts quiescent.
    Conn::open(server.addr)?.snapshot()?;
    let quiet = wire::closed_queries(
        server.addr,
        conns(),
        &qframes,
        Limit { requests: Some(queries.len() as u64), deadline: None },
    )?;

    // Exact answers after `passes` whole passes over the stream plus a partial one.
    let passes = sent / frames.len() as u64;
    let partial_batches = (sent % frames.len() as u64) as usize;
    let partial_items: usize = sizes[..partial_batches].iter().sum();
    let mut partial = Oracle::new();
    partial.add(&stream[..partial_items]);
    let truth = Truth { full: &oracle, passes: passes as i64, partial: Some(&partial) };
    let items_sent = passes * stream.len() as u64 + partial_items as u64;
    phase("queried");
    let mut report = Report::default();
    let mut checker = Checker::default();
    let times = check_queries(&quiet, &queries, &truth, &mut checker, &mut report);
    check_account(&mut Conn::open(server.addr)?, items_sent, &mut checker)?;
    put_ingest(&mut report, &[&log])?;
    put_queries(&mut report, &times, None)?;
    put_accuracy(&mut report, &checker)?;
    let rss = server.peak_rss_mb()?;
    put_tail(&mut report, &setup_s, rss)?;
    drop(server);

    phase("checked");
    if ctx.trace {
        let chunks: Vec<&[StreamEdge]> = stream.chunks(BATCH).collect();
        // One pass of the stream, or what was sent if less.
        let replayed = (sent as usize).min(chunks.len());
        let mut steps: Vec<Step> =
            (0..replayed).map(|i| Step::Ingest(chunks[i % chunks.len()])).collect();
        steps.extend(queries.iter().take(s.replay_queries).map(Step::Query));
        let wire_rtt = WireRtt::from_logs(&[&log], &quiet, &queries);
        let mut layers = replay::served(ctx, s.fit_width, Backing::File, &[], &steps, None)?;
        report.metrics.clear();
        report.extra.clear();
        layers.lag_p99_ms = quantile(&log.lag_ms, 0.99);
        layers.put(&mut report, &wire_rtt);
    }
    report.checker = checker;
    Ok(report)
}

/// Median wire round trips (µs) per request kind: ingest, then the three query verbs.
pub struct WireRtt(pub [Option<f64>; 4]);

impl WireRtt {
    fn from_logs(ingest: &[&IngestLog], queries: &QueryLog, list: &[Query]) -> Self {
        let rtt: Vec<f64> =
            ingest.iter().flat_map(|l| l.rtt_ms.iter().map(|ms| ms * 1e3)).collect();
        let mut out = [median(&rtt), None, None, None];
        for verb in Verb::ALL {
            let samples: Vec<f64> = queries
                .records
                .iter()
                .filter(|r| list[r.index as usize].verb() == verb)
                .map(|r| r.latency_us)
                .collect();
            out[1 + verb as usize] = median(&samples);
        }
        Self(out)
    }
}

/// `wire_query`: read-only closed-loop queries on 2 connections against a preloaded
/// tenant whose shards are 8x the page cache.
pub fn wire_query(ctx: &Ctx) -> Result<Report, String> {
    let s = &ctx.sizes;
    let p = Preloaded::new(ctx);
    phase("inputs ready");
    let (server, setup_s, preload_logs) = set_up(ctx, s.big_width, s.preload_setups, Some(&p))?;
    phase("set up");
    let limit = Limit { requests: None, deadline: Some(Instant::now() + ctx.measure()) };
    let log = wire::closed_queries(server.addr, conns(), &p.query_frames, limit)?;

    phase("measured");
    let mut report = Report::default();
    let mut checker = Checker::default();
    let times = check_queries(&log, &p.queries, &Truth::once(&p.oracle), &mut checker, &mut report);
    check_account(&mut Conn::open(server.addr)?, p.items.len() as u64, &mut checker)?;
    let logs: Vec<&IngestLog> = preload_logs.iter().collect();
    put_ingest(&mut report, &logs)?;
    put_queries(&mut report, &times, None)?;
    put_accuracy(&mut report, &checker)?;
    let rss = server.peak_rss_mb()?;
    put_tail(&mut report, &setup_s, rss)?;
    drop(server);

    phase("checked");
    if ctx.trace {
        let mut answered: Vec<u32> = log.records.iter().map(|r| r.index).collect();
        answered.sort_unstable();
        let steps: Vec<Step> = answered
            .iter()
            .take(s.replay_queries)
            .map(|&i| Step::Query(&p.queries[i as usize]))
            .collect();
        let load: Vec<Step> = p.items.chunks(PRELOAD_BATCH).map(Step::Ingest).collect();
        let wire_rtt = WireRtt::from_logs(&logs, &log, &p.queries);
        let mut layers = replay::served(ctx, s.big_width, Backing::File, &load, &steps, None)?;
        report.metrics.clear();
        report.extra.clear();
        layers.lag_p99_ms = quantile(&log.lag_ms, 0.99);
        layers.put(&mut report, &wire_rtt);
    }
    report.checker = checker;
    Ok(report)
}

/// `wire_mixed`: an open-loop ingest connection at a fixed offered rate beside one
/// closed-loop query connection, on the preloaded larger-than-cache tenant.
pub fn wire_mixed(ctx: &Ctx) -> Result<Report, String> {
    let s = &ctx.sizes;
    let mut p = Preloaded::new(ctx);
    let run = ctx.measure();
    let offered = (s.open_rate * run.as_secs_f64()) as usize + s.open_batch;
    let extra = p.gen.take(offered);
    let extra_frames = wire::ingest_frames(&extra, s.open_batch);
    let extra_sizes = frame_sizes(&extra, s.open_batch);
    let interval = Duration::from_secs_f64(s.open_batch as f64 / s.open_rate);

    phase("inputs ready");
    let (server, setup_s, _) = set_up(ctx, s.big_width, s.preload_setups, Some(&p))?;
    phase("set up");
    let deadline = Instant::now() + run;
    let (ingested, queried) = std::thread::scope(|scope| {
        let addr = server.addr;
        let (frames, sizes) = (&extra_frames, &extra_sizes);
        let ingest = scope.spawn(move || wire::open_ingest(addr, frames, sizes, interval, run));
        let limit = Limit { requests: None, deadline: Some(deadline) };
        let queried = wire::closed_queries(addr, 1, &p.query_frames, limit);
        (ingest.join().expect("open-loop thread panicked"), queried)
    });
    let (sent, log) = ingested?;
    let queried = queried?;

    let mut report = Report::default();
    let mut checker = Checker::default();
    // Answers only grow, so the preloaded prefix bounds every answer given mid-run.
    let times =
        check_queries(&queried, &p.queries, &Truth::once(&p.oracle), &mut checker, &mut report);
    let sent_items: usize = extra_sizes[..sent as usize].iter().sum();
    p.oracle.add(&extra[..sent_items]);
    // Accuracy comes from a quiescent pass against everything sent.
    let quiet = wire::closed_queries(
        server.addr,
        conns(),
        &p.query_frames,
        Limit { requests: Some(s.accuracy_queries as u64), deadline: None },
    )?;
    let mut accuracy = Checker::default();
    check_queries(&quiet, &p.queries, &Truth::once(&p.oracle), &mut accuracy, &mut report);
    check_account(
        &mut Conn::open(server.addr)?,
        (p.items.len() + sent_items) as u64,
        &mut checker,
    )?;
    put_ingest(&mut report, &[&log])?;
    put_queries(&mut report, &times, None)?;
    put_accuracy(&mut report, &accuracy)?;
    checker.absorb_violations(accuracy);
    let rss = server.peak_rss_mb()?;
    put_tail(&mut report, &setup_s, rss)?;
    drop(server);

    phase("checked");
    if ctx.trace {
        let mut answered: Vec<u32> = queried.records.iter().map(|r| r.index).collect();
        answered.sort_unstable();
        let steps: Vec<Step> = answered
            .iter()
            .take(s.replay_queries)
            .map(|&i| Step::Query(&p.queries[i as usize]))
            .collect();
        let batches: Vec<&[StreamEdge]> = extra.chunks(s.open_batch).take(sent as usize).collect();
        let wire_rtt = WireRtt::from_logs(&[&log], &queried, &p.queries);
        let load: Vec<Step> = p.items.chunks(PRELOAD_BATCH).map(Step::Ingest).collect();
        let beside = replay::Beside { batches: &batches, interval };
        let mut layers =
            replay::served(ctx, s.big_width, Backing::File, &load, &steps, Some(beside))?;
        report.metrics.clear();
        report.extra.clear();
        layers.lag_p99_ms = quantile(&log.lag_ms, 0.99);
        layers.put(&mut report, &wire_rtt);
    }
    report.checker = checker;
    Ok(report)
}

/// `library_memory`: the paper's setting, in process and single-threaded. Each cycle
/// builds an in-memory sketch, batch-inserts the stream and runs the query mix; cycles
/// repeat until the run's time is spent.
pub fn library_memory(ctx: &Ctx) -> Result<Report, String> {
    let s = &ctx.sizes;
    let stream = StreamGen::new(ctx.seed, s.vertices, s.exponent).take(s.lib_stream);
    let mut oracle = Oracle::new();
    oracle.add(&stream);
    let queries = gen::queries(ctx.seed, &oracle, s.check_queries);
    let truth = Truth::once(&oracle);

    let mut report = Report::default();
    let mut checker = Checker::default();
    let mut setup_s = Vec::new();
    let mut rates = Vec::new();
    let mut latency_ms = Vec::new();
    let mut query_rates = Vec::new();
    let mut times = QueryTimes::default();
    let run_start = Instant::now();
    let deadline = run_start + ctx.measure();
    while setup_s.len() < 2 || Instant::now() < deadline {
        let start = Instant::now();
        let mut sketch = GssBuilder::new()
            .width(s.lib_width)
            .build()
            .map_err(|e| format!("build sketch: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        let mut busy = 0.0;
        for batch in stream.chunks(BATCH) {
            let t = Instant::now();
            sketch.insert_batch(batch);
            let took = t.elapsed().as_secs_f64();
            busy += took;
            latency_ms.push((run_start.elapsed().as_secs_f64(), took * 1e3));
            report.attempted += 1;
        }
        rates.push(stream.len() as f64 / busy);
        let mut busy = 0.0;
        for query in &queries {
            let t = Instant::now();
            let answer = answer_local(&sketch, query);
            let took = t.elapsed().as_secs_f64();
            busy += took;
            let at_s = run_start.elapsed().as_secs_f64();
            times.latency_us[query.verb() as usize].push((at_s, took * 1e6));
            report.attempted += 1;
            checker.check(query, &answer, &truth);
        }
        query_rates.push(queries.len() as f64 / busy);
    }
    // Rates are the median cycle's; latencies pool every cycle.
    let pooled: Vec<f64> = latency_ms.iter().map(|s| s.1).collect();
    report.put("ingest_items_per_s", need(median(&rates), "ingest rate")?, "1/s");
    report.put("ingest_p50_ms", need(median(&pooled), "ingest")?, "ms");
    report.put_extra("ingest_p99_ms", need(chunked_quantile(&latency_ms, 0.99), "ingest")?, "ms");
    put_queries(&mut report, &times, median(&query_rates))?;
    put_accuracy(&mut report, &checker)?;
    put_tail(&mut report, &setup_s, own_peak_rss_mb()?)?;

    phase("checked");
    if ctx.trace {
        let layers = replay::library(ctx, s.lib_width, &stream, &queries)?;
        report.metrics.clear();
        report.extra.clear();
        layers.put(&mut report, &WireRtt([None; 4]));
    }
    report.checker = checker;
    Ok(report)
}

pub fn answer_local(summary: &impl SummaryRead, query: &Query) -> Answer {
    match *query {
        Query::Edge { source, destination } => {
            Answer::Edge(summary.edge_weight(source, destination))
        }
        Query::Successors(v) => Answer::Vertices(summary.successors(v)),
        Query::Precursors(v) => Answer::Vertices(summary.precursors(v)),
    }
}

fn own_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in own status".to_string())
}
