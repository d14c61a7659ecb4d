//! The traced run: the workload's request sequence replayed in process, once untraced
//! and once with spans around every call the benchmark makes into a layer's public
//! functions and counter deltas around every request.
//!
//! A wire request is replayed as the client and server would handle it, minus the
//! socket: `encode_request`, `decode_frame` + `decode_request`, the namespace's batch
//! assembly, the `ShardedGss` call, `encode_response`, then `decode_frame` +
//! `decode_response`. The store is built with the builder calls the server's
//! `NamespaceRegistry::open_namespace` makes.

use crate::gen::{Query, Verb};
use crate::stats::{median, quantile};
use crate::trace::{Counters, Spans, REQUEST_SPAN, TRACE_LAYER};
use crate::wire::{self, TENANT};
use crate::workloads::{answer_local, Ctx, Report, WireRtt, BATCH, SHARDS};
use gss_core::{Durability, FileStore, GroupCommit, GssBuilder, GssSketch, NodeHasher, ShardedGss};
use gss_graph::{StreamEdge, SummaryWrite};
use gss_server::protocol::{self, Request, Response, WireEdge};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One replayed request.
#[derive(Clone, Copy)]
pub enum Step<'a> {
    Ingest(&'a [StreamEdge]),
    Query(&'a Query),
}

/// Open-loop ingest replayed on a second thread beside the main sequence
/// (`wire_mixed`): `batches` at one per `interval`.
#[derive(Clone, Copy)]
pub struct Beside<'a> {
    pub batches: &'a [&'a [StreamEdge]],
    pub interval: Duration,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ingest,
    Query(Verb),
}

/// What the traced replay recorded about one request.
struct Req {
    kind: Kind,
    items: usize,
    bytes: usize,
    delta: Counters,
}

/// Per-thread replay state; with `on == false` it only runs the calls.
struct Tracer {
    on: bool,
    spans: Spans,
    reqs: Vec<Req>,
    /// Request ids start here (threads use disjoint ranges).
    base: u64,
    /// Wall time spent replaying; open-loop sleep is neither program work nor
    /// bookkeeping and is left out.
    busy: Duration,
}

impl Tracer {
    fn new(on: bool, origin: Instant, base: u64) -> Self {
        Self { on, spans: Spans::new(origin), reqs: Vec::new(), base, busy: Duration::ZERO }
    }

    fn time<R>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        if self.on {
            let id = self.base + self.reqs.len() as u64;
            self.spans.time(name, parent, id, f)
        } else {
            f()
        }
    }

    /// Replays one request against `store`.
    fn step(&mut self, store: &ShardedGss, step: Step, clock: &mut u64) -> Result<(), String> {
        let id = self.base + self.reqs.len() as u64;
        let envelope = self.on.then(|| self.spans.open(REQUEST_SPAN, None, id));
        let before =
            self.on.then(|| self.time("trace.counters", envelope, || Counters::read(store)));
        let frame = self.time("protocol.encode_request", envelope, || {
            protocol::encode_request(&match step {
                Step::Ingest(batch) => Request::Ingest {
                    items: batch
                        .iter()
                        .map(|e| WireEdge {
                            source: e.source,
                            destination: e.destination,
                            weight: e.weight,
                        })
                        .collect(),
                },
                Step::Query(query) => wire::query_request(query),
            })
        });
        let request = self.time("protocol.decode_request", envelope, || {
            let (kind, payload, _) = protocol::decode_frame(&frame)?;
            protocol::decode_request(kind, payload)
        });
        let request = request.map_err(|e| format!("replay decode: {e}"))?;
        let (kind, items, response) = match request {
            Request::Ingest { items } => {
                let first = *clock;
                *clock += items.len() as u64;
                let batch: Vec<StreamEdge> = self.time("protocol.namespace", envelope, || {
                    items
                        .iter()
                        .enumerate()
                        .map(|(k, e)| {
                            StreamEdge::new(e.source, e.destination, first + k as u64, e.weight)
                        })
                        .collect()
                });
                let done =
                    self.time("sharded.insert_batch", envelope, || store.try_insert_batch(&batch));
                done.map_err(|e| format!("replay insert: {e}"))?;
                let n = items.len() as u64;
                (
                    Kind::Ingest,
                    items.len(),
                    Response::Ingested { accepted: n, acked_total: *clock, durability: 0 },
                )
            }
            Request::Edge { source, destination } => {
                let w =
                    self.time("sharded.edge", envelope, || store.edge_weight(source, destination));
                (Kind::Query(Verb::Edge), 0, Response::EdgeWeight(w))
            }
            Request::Successors { vertex } => {
                let v = self.time("sharded.successors", envelope, || store.successors(vertex));
                (Kind::Query(Verb::Successor), 0, Response::Vertices(v))
            }
            Request::Precursors { vertex } => {
                let v = self.time("sharded.precursors", envelope, || store.precursors(vertex));
                (Kind::Query(Verb::Precursor), 0, Response::Vertices(v))
            }
            other => return Err(format!("replay cannot serve {other:?}")),
        };
        let reply = self
            .time("protocol.encode_response", envelope, || protocol::encode_response(&response));
        let decoded = self.time("protocol.decode_response", envelope, || {
            let (kind, payload, _) = protocol::decode_frame(&reply)?;
            protocol::decode_response(kind, payload)
        });
        black_box(decoded.map_err(|e| format!("replay decode: {e}"))?);
        let after =
            self.on.then(|| self.time("trace.counters", envelope, || Counters::read(store)));
        if let Some(envelope) = envelope {
            self.spans.close(envelope);
        }
        let delta = match (before, after) {
            (Some(b), Some(a)) => a.since(&b),
            _ => Counters::default(),
        };
        self.reqs.push(Req { kind, items, bytes: frame.len() + reply.len(), delta });
        Ok(())
    }
}

/// Where the replayed store keeps its matrix.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// Files under a fresh directory, as `gss-server` keeps a tenant.
    File,
    /// Memory: the served path without pager and WAL (`library_memory`'s probe of the
    /// layers it bypasses).
    Memory,
}

/// Builds a store the way `gss-server` opens a new tenant (in memory for
/// [`Backing::Memory`]).
fn build_store(dir: &Path, width: usize, backing: Backing) -> Result<ShardedGss, String> {
    let builder = GssBuilder::new().width(width).track_node_ids(true);
    let builder = match backing {
        Backing::Memory => builder,
        Backing::File => {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            builder
                .storage_dir(dir, TENANT)
                .durability(Durability::Strict)
                .group_commit(GroupCommit::default())
        }
    };
    builder.build_sharded(SHARDS).map_err(|e| format!("replay store: {e}"))
}

/// Runs `load`, then `run` beside the optional open-loop `beside` thread. Returns the
/// tracers of the main and the beside thread.
fn replay(
    store: &ShardedGss,
    on: bool,
    load: &[Step],
    run: &[Step],
    beside: Option<Beside>,
) -> Result<(Tracer, Option<Tracer>), String> {
    let origin = Instant::now();
    let mut main = Tracer::new(on, origin, 0);
    let mut clock = 0u64;
    for &step in load {
        main.step(store, step, &mut clock)?;
    }
    let done = AtomicBool::new(false);
    let side = std::thread::scope(|scope| -> Result<Option<Tracer>, String> {
        let side = beside.map(|b| {
            let done = &done;
            scope.spawn(move || -> Result<Tracer, String> {
                let mut t = Tracer::new(on, origin, 1 << 40);
                // A clock range of its own, far above the main thread's timestamps.
                let mut clock = 1u64 << 40;
                let start = Instant::now();
                let mut idle = Duration::ZERO;
                for (k, batch) in b.batches.iter().enumerate() {
                    // relaxed: a stop flag; no data is published under it.
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    let due = start + b.interval * k as u32;
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                        idle += due - now;
                    }
                    t.step(store, Step::Ingest(batch), &mut clock)?;
                }
                t.busy = start.elapsed().saturating_sub(idle);
                Ok(t)
            })
        });
        let ran = run.iter().try_for_each(|&step| main.step(store, step, &mut clock));
        // The main thread's busy time ends here; waiting for the side thread is not work.
        main.busy = origin.elapsed();
        done.store(true, Ordering::Relaxed);
        let side = side.map(|h| h.join().expect("replay thread panicked")).transpose()?;
        ran.map(|()| side)
    })?;
    Ok((main, side))
}

/// The per-layer metrics of one traced run.
pub struct Layers {
    values: Vec<(String, f64, &'static str)>,
    /// In-process medians (µs) of the whole request path, per request kind: ingest,
    /// edge, successor, precursor.
    inproc_us: [Option<f64>; 4],
    /// The load generator's p99 lag, where the caller measured one.
    pub lag_p99_ms: Option<f64>,
}

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        if let Some(entry) = self.values.iter_mut().find(|(n, _, _)| n == name) {
            entry.1 = value;
        }
    }

    /// Adds the layer metrics to `report`, with the call overheads: the wire's median
    /// round trip per request kind minus the in-process median of the same requests
    /// (0 where either side did not run).
    pub fn put(&self, report: &mut Report, wire: &WireRtt) {
        for (name, value, unit) in &self.values {
            report.put(name, *value, unit);
        }
        for (k, kind) in ["ingest", "edge", "successor", "precursor"].into_iter().enumerate() {
            let overhead = match (wire.0[k], self.inproc_us[k]) {
                (Some(rtt), Some(inproc)) => rtt - inproc,
                _ => 0.0,
            };
            report.put(&format!("server.call_overhead_us.{kind}"), overhead, "us");
        }
        report.put("loadgen.lag_p99_ms", self.lag_p99_ms.unwrap_or(0.0), "ms");
    }
}

/// Traced replay of a served workload: `load` then `run` (and `beside`), on stores
/// built like the server's tenant of matrix width `width`.
pub fn served(
    ctx: &Ctx,
    width: usize,
    backing: Backing,
    load: &[Step],
    run: &[Step],
    beside: Option<Beside>,
) -> Result<Layers, String> {
    let dir = ctx.fresh_dir();
    let untraced = {
        let store = build_store(&dir, width, backing)?;
        let start = Instant::now();
        replay(&store, false, load, run, beside)?;
        start.elapsed().as_secs_f64()
    };
    let _ = std::fs::remove_dir_all(&dir);

    let dir = ctx.fresh_dir();
    let result = traced(&dir, width, backing, load, run, beside, untraced);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn traced(
    dir: &Path,
    width: usize,
    backing: Backing,
    load: &[Step],
    run: &[Step],
    beside: Option<Beside>,
    untraced_s: f64,
) -> Result<Layers, String> {
    let store = build_store(dir, width, backing)?;
    let before = Counters::read(&store);
    let start = Instant::now();
    let (main, side) = replay(&store, true, load, run, beside)?;
    let traced_s = start.elapsed().as_secs_f64();
    let totals = Counters::read(&store).since(&before);

    let mut spans = main.spans;
    let mut busy = main.busy;
    // Requests keyed by their span request id: main-thread ids count from 0 and the
    // side thread's from its tracer base.
    let mut reqs: Vec<(u64, Req)> =
        main.reqs.into_iter().enumerate().map(|(k, r)| (k as u64, r)).collect();
    if let Some(side) = side {
        spans.absorb(side.spans);
        busy += side.busy;
        reqs.extend(side.reqs.into_iter().enumerate().map(|(k, r)| (side.base + k as u64, r)));
    }

    let stats = store.detailed_stats();
    let shard_items: Vec<f64> = (0..store.shard_count())
        .map(|i| store.with_shard_read(i, |s| s.items_inserted() as f64))
        .collect();
    let sketch_bytes: usize =
        (0..store.shard_count()).map(|i| store.with_shard_read(i, |s| s.memory_bytes())).sum();
    let checkpoint_ms = {
        let t = Instant::now();
        store.sync().map_err(|e| format!("checkpoint: {e}"))?;
        t.elapsed().as_secs_f64() * 1e3
    };
    let config = *store.config();
    let (reopen_s, disk_bytes) = reopen(dir, store)?;

    let batches: Vec<&[StreamEdge]> = load
        .iter()
        .chain(run)
        .filter_map(|s| match s {
            Step::Ingest(b) => Some(*b),
            Step::Query(_) => None,
        })
        .chain(beside.iter().flat_map(|b| b.batches.iter().copied()))
        .collect();
    let hashing = hashing_ns_per_item(&NodeHasher::new(&config), &batches);
    let memory_insert = {
        let memory = GssBuilder::from_config(config)
            .build_sharded(SHARDS)
            .map_err(|e| format!("memory store: {e}"))?;
        let t = Instant::now();
        for batch in &batches {
            memory.insert_batch(batch);
        }
        t.elapsed().as_nanos() as f64 / items_in(&batches).max(1) as f64
    };

    let mut out = Vec::new();
    let request_ids: Vec<(u64, &Req)> = reqs.iter().map(|(id, r)| (*id, r)).collect();
    let protocol_ns = spans.per_request(|n| n.starts_with("protocol."));
    let program_ns = spans.per_request(|n| !n.starts_with(TRACE_LAYER) && n != REQUEST_SPAN);
    let ingest: Vec<&(u64, &Req)> =
        request_ids.iter().filter(|(_, r)| r.kind == Kind::Ingest).collect();
    let items: usize = ingest.iter().map(|(_, r)| r.items).sum();
    let per_item = |x: f64| if items == 0 { 0.0 } else { x / items as f64 };
    let sum_ns = |map: &std::collections::BTreeMap<u64, f64>, ids: &[&(u64, &Req)]| -> f64 {
        ids.iter().map(|(id, _)| map.get(id).copied().unwrap_or(0.0)).sum()
    };
    let queries: Vec<&(u64, &Req)> =
        request_ids.iter().filter(|(_, r)| r.kind != Kind::Ingest).collect();
    out.push(("protocol.codec_ns_per_item".into(), per_item(sum_ns(&protocol_ns, &ingest)), "ns"));
    let per_query = if queries.is_empty() {
        0.0
    } else {
        sum_ns(&protocol_ns, &queries) / queries.len() as f64
    };
    out.push(("protocol.codec_ns_per_query".into(), per_query, "ns"));
    out.push((
        "protocol.bytes_per_item".into(),
        per_item(ingest.iter().map(|(_, r)| r.bytes as f64).sum()),
        "B/item",
    ));
    let insert_ms: Vec<f64> =
        spans.durations("sharded.insert_batch").iter().map(|ns| ns / 1e6).collect();
    out.push((
        "sharded.insert_batch_ms_p50".into(),
        quantile(&insert_ms, 0.5).unwrap_or(0.0),
        "ms",
    ));
    out.push((
        "sharded.insert_batch_ms_p99".into(),
        quantile(&insert_ms, 0.99).unwrap_or(0.0),
        "ms",
    ));
    let mean = shard_items.iter().sum::<f64>() / shard_items.len() as f64;
    let max = shard_items.iter().copied().fold(0.0, f64::max);
    out.push((
        "sharded.shard_items_skew".into(),
        if mean > 0.0 { max / mean } else { 0.0 },
        "ratio",
    ));
    for (verb, span) in [
        (Verb::Edge, "sharded.edge"),
        (Verb::Successor, "sharded.successors"),
        (Verb::Precursor, "sharded.precursors"),
    ] {
        let us: Vec<f64> = spans.durations(span).iter().map(|ns| ns / 1e3).collect();
        out.push((format!("sharded.{}_us_p50", verb.name()), median(&us).unwrap_or(0.0), "us"));
    }
    out.push(("hashing.ns_per_item".into(), hashing, "ns"));
    out.push(("sketch.insert_ns_per_item".into(), memory_insert, "ns"));
    out.push(("sketch.load_factor".into(), stats.matrix_load_factor, "ratio"));
    out.push(("sketch.buffer_percentage".into(), stats.buffer_percentage * 100.0, "%"));
    out.push(("sketch.bytes".into(), sketch_bytes as f64, "B"));

    let mut ingest_delta = Counters::default();
    let mut clean_wal = (0u64, 0usize);
    for (_, r) in &ingest {
        ingest_delta.add(&r.delta);
        if r.delta.checkpoints == 0 {
            clean_wal.0 += r.delta.wal_bytes;
            clean_wal.1 += r.items;
        }
    }
    out.push(("pager.faults_per_item".into(), per_item(ingest_delta.faults as f64), "count"));
    out.push(("pager.lookups_per_item".into(), per_item(ingest_delta.lookups as f64), "count"));
    out.push((
        "pager.pages_flushed_per_item".into(),
        per_item(ingest_delta.pages_flushed as f64),
        "count",
    ));
    for verb in Verb::ALL {
        let mut d = Counters::default();
        let mut n = 0usize;
        for (_, r) in request_ids.iter().filter(|(_, r)| r.kind == Kind::Query(verb)) {
            d.add(&r.delta);
            n += 1;
        }
        let per = |x: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
        out.push((format!("pager.faults_per_query.{}", verb.name()), per(d.faults), "count"));
        out.push((format!("pager.lookups_per_query.{}", verb.name()), per(d.lookups), "count"));
    }
    let hit =
        if totals.lookups == 0 { 0.0 } else { 1.0 - totals.faults as f64 / totals.lookups as f64 };
    out.push(("pager.hit_ratio".into(), hit, "ratio"));
    out.push(("pager.latch_waits_per_s".into(), totals.latch_waits as f64 / traced_s, "1/s"));
    let wal_per_item = if clean_wal.1 == 0 { 0.0 } else { clean_wal.0 as f64 / clean_wal.1 as f64 };
    out.push(("wal.bytes_per_item".into(), wal_per_item, "B/item"));
    out.push(("wal.group_commits_per_s".into(), totals.group_commits as f64 / traced_s, "1/s"));
    let rounds = totals.group_commits + totals.group_waits;
    let wait_ratio = if rounds == 0 { 0.0 } else { totals.group_waits as f64 / rounds as f64 };
    out.push(("wal.group_wait_ratio".into(), wait_ratio, "ratio"));
    out.push(("wal.fsyncs_per_s".into(), totals.fsyncs as f64 / traced_s, "1/s"));
    out.push(("wal.flushes_per_item".into(), per_item(ingest_delta.wal_flushes as f64), "count"));
    out.push(("wal.checkpoint_ms".into(), checkpoint_ms, "ms"));
    out.push(("persistence.reopen_s".into(), reopen_s, "s"));
    let inserted = shard_items.iter().sum::<f64>();
    out.push((
        "store.disk_bytes_per_item".into(),
        if inserted > 0.0 { disk_bytes as f64 / inserted } else { 0.0 },
        "B/item",
    ));

    let attributed = spans.attributed_ns() as f64;
    let busy_ns = busy.as_nanos() as f64 - spans.bookkeeping_ns() as f64;
    let coverage = attributed / busy_ns;
    check_coverage(coverage)?;
    out.push(("trace.coverage".into(), coverage, "ratio"));
    out.push(("trace.overhead".into(), traced_s / untraced_s - 1.0, "ratio"));
    print_summary(&spans, traced_s);
    eprintln!("counters over the traced replay: {totals:?}");

    let kinds = [
        Kind::Ingest,
        Kind::Query(Verb::Edge),
        Kind::Query(Verb::Successor),
        Kind::Query(Verb::Precursor),
    ];
    let inproc_us = kinds.map(|kind| {
        let us: Vec<f64> = request_ids
            .iter()
            .filter(|(_, r)| r.kind == kind)
            .map(|(id, _)| program_ns.get(id).copied().unwrap_or(0.0) / 1e3)
            .collect();
        median(&us)
    });
    Ok(Layers { values: out, inproc_us, lag_p99_ms: None })
}

/// Share of the replay's busy time the layer spans must account for.
const COVERAGE_FLOOR: f64 = 0.9;

fn check_coverage(coverage: f64) -> Result<(), String> {
    if coverage < COVERAGE_FLOOR {
        return Err(format!("trace.coverage {coverage:.3} is below the {COVERAGE_FLOOR} floor"));
    }
    Ok(())
}

fn items_in(batches: &[&[StreamEdge]]) -> usize {
    batches.iter().map(|b| b.len()).sum()
}

/// Hashes both endpoints of every item with `hasher`, apart from any insert.
fn hashing_ns_per_item(hasher: &NodeHasher, batches: &[&[StreamEdge]]) -> f64 {
    let start = Instant::now();
    for batch in batches {
        for e in batch.iter() {
            black_box(hasher.hashed_node(black_box(e.source)));
            black_box(hasher.hashed_node(black_box(e.destination)));
        }
    }
    start.elapsed().as_nanos() as f64 / items_in(batches).max(1) as f64
}

/// Drops `store` and opens it again: a file-backed store from its shard files, an
/// in-memory one from its snapshot. Returns the open time and the bytes it was opened
/// from (on disk, or in the snapshot).
fn reopen(dir: &Path, store: ShardedGss) -> Result<(f64, u64), String> {
    if store.with_shard_read(0, |s| s.room_storage().as_file().is_none()) {
        let snapshots: Vec<Vec<u8>> = (0..store.shard_count())
            .map(|i| store.with_shard_read(i, |s| s.to_snapshot()))
            .collect();
        drop(store);
        let t = Instant::now();
        for bytes in &snapshots {
            black_box(GssSketch::from_snapshot(bytes).map_err(|e| format!("reopen: {e}"))?);
        }
        return Ok((t.elapsed().as_secs_f64(), snapshots.iter().map(|b| b.len() as u64).sum()));
    }
    drop(store);
    let t = Instant::now();
    let reopened = ShardedGss::open_sharded(
        dir.join(format!("{TENANT}.gss")),
        SHARDS,
        FileStore::DEFAULT_CACHE_PAGES,
        Durability::Strict,
        GroupCommit::default(),
    )
    .map_err(|e| format!("reopen: {e}"))?;
    let took = t.elapsed().as_secs_f64();
    drop(reopened);
    Ok((took, disk_usage(dir)))
}

/// Bytes the directory's files occupy on disk.
fn disk_usage(dir: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.blocks() * 512).sum()
        })
        .unwrap_or(0)
}

/// Prints each span name's count, total and self time to stderr.
fn print_summary(spans: &Spans, wall_s: f64) {
    eprintln!("{:<28} {:>10} {:>12} {:>12} {:>7}", "span", "count", "total_ms", "self_ms", "share");
    for (name, (count, total, self_ns)) in spans.summary() {
        eprintln!(
            "{name:<28} {count:>10} {:>12.3} {:>12.3} {:>6.1}%",
            total as f64 / 1e6,
            self_ns as f64 / 1e6,
            self_ns as f64 / 1e7 / wall_s
        );
    }
}

/// Traced replay of `library_memory`: one cycle of inserts and queries on an in-memory
/// sketch gives the sketch and hashing figures, coverage and overhead. The protocol,
/// sharded and persistence figures come from the served request path replayed on the
/// same inputs in memory: what those layers would add here. There is no server, so the
/// call overheads read 0.
pub fn library(
    ctx: &Ctx,
    width: usize,
    stream: &[StreamEdge],
    queries: &[Query],
) -> Result<Layers, String> {
    let cycle = |spans: Option<&mut Spans>| -> Result<(GssSketch, f64, Vec<f64>), String> {
        let mut sketch =
            GssBuilder::new().width(width).build().map_err(|e| format!("build: {e}"))?;
        let mut gaps_ms = Vec::new();
        let start = Instant::now();
        match spans {
            None => {
                for batch in stream.chunks(BATCH) {
                    sketch.insert_batch(batch);
                }
                for q in queries {
                    black_box(answer_local(&sketch, q));
                }
            }
            Some(spans) => {
                let mut last: Option<Instant> = None;
                for (i, batch) in stream.chunks(BATCH).enumerate() {
                    if let Some(last) = last {
                        gaps_ms.push(last.elapsed().as_secs_f64() * 1e3);
                    }
                    spans
                        .time("sketch.insert_batch", None, i as u64, || sketch.insert_batch(batch));
                    last = Some(Instant::now());
                }
                for (i, q) in queries.iter().enumerate() {
                    let name = match q.verb() {
                        Verb::Edge => "sketch.edge",
                        Verb::Successor => "sketch.successors",
                        Verb::Precursor => "sketch.precursors",
                    };
                    let id = (1 << 40) + i as u64;
                    black_box(spans.time(name, None, id, || answer_local(&sketch, q)));
                }
            }
        }
        Ok((sketch, start.elapsed().as_secs_f64(), gaps_ms))
    };
    let (_, untraced_s, _) = cycle(None)?;
    let mut spans = Spans::new(Instant::now());
    let (sketch, traced_s, gaps_ms) = cycle(Some(&mut spans))?;
    print_summary(&spans, traced_s);
    let coverage = spans.attributed_ns() as f64 / (traced_s * 1e9);
    check_coverage(coverage)?;

    let steps: Vec<Step> =
        stream.chunks(BATCH).map(Step::Ingest).chain(queries.iter().map(Step::Query)).collect();
    let mut layers = served(ctx, width, Backing::Memory, &[], &steps, None)?;
    let batches: Vec<&[StreamEdge]> = stream.chunks(BATCH).collect();
    let stats = sketch.detailed_stats();
    let insert_ns: f64 = spans.durations("sketch.insert_batch").iter().sum();
    for (name, value) in [
        ("hashing.ns_per_item", hashing_ns_per_item(sketch.hasher(), &batches)),
        ("sketch.insert_ns_per_item", insert_ns / stream.len() as f64),
        ("sketch.load_factor", stats.matrix_load_factor),
        ("sketch.buffer_percentage", stats.buffer_percentage * 100.0),
        ("sketch.bytes", sketch.memory_bytes() as f64),
        ("trace.coverage", coverage),
        ("trace.overhead", traced_s / untraced_s - 1.0),
    ] {
        layers.set(name, value);
    }
    layers.lag_p99_ms = quantile(&gaps_ms, 0.99);
    Ok(layers)
}
