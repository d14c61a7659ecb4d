//! The wire side: a `gss-server` child process and the load generator's connections.
//!
//! The server is the built binary, started on an OS-assigned loopback port with a fresh
//! data directory that is removed when the [`Server`] is dropped. The load generator
//! runs in this process; it sends pre-encoded GSSP frames so its own work per request is
//! one write and one read.

use crate::gen::{Answer, Query};
use gss_server::protocol::{self, Request, Response, WireEdge, WireStats};
use gss_server::FrameConn;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub const TENANT: &str = "bench";
const TOKEN: &str = "bench-token";

/// A running `gss-server` process. Dropping it kills the process, waits for it and
/// removes its data directory.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    dir: PathBuf,
}

impl Server {
    /// Starts `bin` with one Strict tenant of `shards` shards of matrix width `width`,
    /// in the fresh directory `dir`.
    pub fn launch(bin: &Path, dir: PathBuf, shards: usize, width: usize) -> Result<Self, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let config = dir.join("tenants.conf");
        let line = format!(
            "tenant {TENANT} token={TOKEN} durability=strict shards={shards} width={width}\n"
        );
        std::fs::write(&config, line).map_err(|e| format!("write tenant config: {e}"))?;
        let mut child = Command::new(bin)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(dir.join("data"))
            .arg("--config")
            .arg(&config)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(_) => line.trim().strip_prefix("listening on ").and_then(|a| a.parse().ok()),
            Err(_) => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&dir);
            return Err(format!("gss-server did not report its address (got {line:?})"));
        };
        Ok(Self { child, _stdout: stdout, addr, dir })
    }

    /// The server's peak resident memory (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One authenticated connection.
pub struct Conn {
    inner: FrameConn,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let inner = FrameConn::new(stream).map_err(|e| format!("connect: {e}"))?;
        inner.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        let mut conn = Self { inner };
        let hello = Request::Hello { tenant: TENANT.into(), token: TOKEN.into() };
        match conn.call(&protocol::encode_request(&hello))? {
            Response::Ok => Ok(conn),
            other => Err(format!("HELLO answered {other:?}")),
        }
    }

    /// Sends one encoded request frame and decodes the response. Transport and framing
    /// failures are errors; a typed error response is returned as a response.
    pub fn call(&mut self, frame: &[u8]) -> Result<Response, String> {
        self.inner.write_frame(frame).map_err(|e| format!("send: {e}"))?;
        let (kind, payload) = self.inner.read_frame().map_err(|e| format!("receive: {e}"))?;
        protocol::decode_response(kind, &payload).map_err(|e| format!("decode: {e}"))
    }

    pub fn snapshot(&mut self) -> Result<(), String> {
        match self.call(&protocol::encode_request(&Request::Snapshot))? {
            Response::Ok => Ok(()),
            other => Err(format!("SNAPSHOT answered {other:?}")),
        }
    }

    pub fn stats(&mut self) -> Result<WireStats, String> {
        match self.call(&protocol::encode_request(&Request::Stats))? {
            Response::Stats(stats) => Ok(stats),
            other => Err(format!("STATS answered {other:?}")),
        }
    }
}

/// Encodes `items` as INGEST frames of `batch` items each.
pub fn ingest_frames(items: &[gss_graph::StreamEdge], batch: usize) -> Vec<Vec<u8>> {
    items
        .chunks(batch)
        .map(|chunk| {
            let items = chunk
                .iter()
                .map(|e| WireEdge {
                    source: e.source,
                    destination: e.destination,
                    weight: e.weight,
                })
                .collect();
            protocol::encode_request(&Request::Ingest { items })
        })
        .collect()
}

pub fn query_request(query: &Query) -> Request {
    match *query {
        Query::Edge { source, destination } => Request::Edge { source, destination },
        Query::Successors(vertex) => Request::Successors { vertex },
        Query::Precursors(vertex) => Request::Precursors { vertex },
    }
}

/// When a closed loop stops: after a number of requests, at a deadline, or both.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    pub requests: Option<u64>,
    pub deadline: Option<Instant>,
}

impl Limit {
    fn reached(&self, taken: u64) -> bool {
        self.requests.is_some_and(|n| taken >= n)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// What an ingest loop did.
#[derive(Debug, Default)]
pub struct IngestLog {
    /// `(ack time in s since the loop started, batch latency in ms)`; latency counts
    /// from send (closed loop) or from the due time (open loop).
    pub latency_ms: Vec<(f64, f64)>,
    /// `(ack time, items)` of every acknowledged batch.
    pub acked: Vec<(f64, f64)>,
    /// Send-to-ack time in ms (equals `latency_ms` in a closed loop).
    pub rtt_ms: Vec<f64>,
    /// How late each send was: behind its due time (open loop), or after the previous
    /// ack on the same connection (closed loop).
    pub lag_ms: Vec<f64>,
    /// Batches acknowledged, and the items in them.
    pub batches: u64,
    pub items: u64,
    /// Batches refused with an error response.
    pub failed: u64,
    /// Wall time of the loop.
    pub wall_s: f64,
}

impl IngestLog {
    fn absorb(&mut self, other: IngestLog) {
        self.latency_ms.extend(other.latency_ms);
        self.rtt_ms.extend(other.rtt_ms);
        self.lag_ms.extend(other.lag_ms);
        self.acked.extend(other.acked);
        self.batches += other.batches;
        self.items += other.items;
        self.failed += other.failed;
    }
}

fn ingest_outcome(response: Response, items: usize, at_s: f64, log: &mut IngestLog) {
    match response {
        Response::Ingested { accepted, .. } if accepted == items as u64 => {
            log.batches += 1;
            log.items += accepted;
            log.acked.push((at_s, accepted as f64));
        }
        _ => log.failed += 1,
    }
}

/// Closed-loop ingest over `conns` connections: each connection sends the next batch of
/// the shared sequence as soon as its previous one is acknowledged. Batch `i` of the
/// sequence is `frames[i % frames.len()]`, so the batches sent are always a prefix of
/// the (cyclic) sequence; returns that prefix's length with the log.
pub fn closed_ingest(
    addr: SocketAddr,
    conns: usize,
    frames: &[Vec<u8>],
    sizes: &[usize],
    limit: Limit,
) -> Result<(u64, IngestLog), String> {
    let cursor = AtomicU64::new(0);
    let start = Instant::now();
    let logs = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || -> Result<IngestLog, String> {
                    let mut conn = Conn::open(addr)?;
                    let mut log = IngestLog::default();
                    let mut last_ack: Option<Instant> = None;
                    loop {
                        // relaxed: the counter only hands out distinct indices.
                        let taken = cursor.fetch_add(1, Ordering::Relaxed);
                        if limit.reached(taken) {
                            cursor.fetch_sub(1, Ordering::Relaxed);
                            break;
                        }
                        let index = (taken % frames.len() as u64) as usize;
                        let sent = Instant::now();
                        if let Some(ack) = last_ack {
                            log.lag_ms.push(ms(sent - ack));
                        }
                        let response = conn.call(&frames[index])?;
                        let acked = Instant::now();
                        let at_s = (acked - start).as_secs_f64();
                        log.latency_ms.push((at_s, ms(acked - sent)));
                        log.rtt_ms.push(ms(acked - sent));
                        ingest_outcome(response, sizes[index], at_s, &mut log);
                        last_ack = Some(acked);
                    }
                    Ok(log)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("ingest thread panicked")).collect::<Vec<_>>()
    });
    let mut total = IngestLog { wall_s: start.elapsed().as_secs_f64(), ..IngestLog::default() };
    for log in logs {
        total.absorb(log?);
    }
    // A worker that stopped on the deadline gave its index back, so the cursor now
    // counts exactly the batches sent.
    Ok((cursor.load(Ordering::Relaxed), total))
}

/// Open-loop ingest on one connection: batch `k` is due `k × interval` after the start
/// and its latency counts from that due time, so a stall also delays the batches
/// queued behind it. Sends `frames` in order until the next due time passes `run`.
pub fn open_ingest(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    sizes: &[usize],
    interval: Duration,
    run: Duration,
) -> Result<(u64, IngestLog), String> {
    let mut conn = Conn::open(addr)?;
    let mut log = IngestLog::default();
    let start = Instant::now();
    let mut sent = 0u64;
    for (frame, &size) in frames.iter().zip(sizes) {
        let due = start + interval * sent as u32;
        if due - start >= run {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let send = Instant::now();
        log.lag_ms.push(ms(send - due));
        let response = conn.call(frame)?;
        let acked = Instant::now();
        let at_s = (acked - start).as_secs_f64();
        log.latency_ms.push((at_s, ms(acked - due)));
        log.rtt_ms.push(ms(acked - send));
        ingest_outcome(response, size, at_s, &mut log);
        sent += 1;
    }
    log.wall_s = start.elapsed().as_secs_f64();
    Ok((sent, log))
}

/// One answered query of a closed query loop.
pub struct QueryRecord {
    pub index: u32,
    /// Answer time in seconds since the loop started.
    pub at_s: f64,
    pub latency_us: f64,
    pub answer: Option<Answer>,
}

/// What a query loop did.
#[derive(Default)]
pub struct QueryLog {
    pub records: Vec<QueryRecord>,
    /// Send time of each request after the previous answer on its connection, in ms.
    pub lag_ms: Vec<f64>,
    pub wall_s: f64,
}

/// Closed-loop queries over `conns` connections, taking queries `i % frames.len()` of
/// the shared sequence in order. A query answered with an error response is recorded
/// with no answer.
pub fn closed_queries(
    addr: SocketAddr,
    conns: usize,
    frames: &[Vec<u8>],
    limit: Limit,
) -> Result<QueryLog, String> {
    let cursor = AtomicU64::new(0);
    let start = Instant::now();
    let logs = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || -> Result<QueryLog, String> {
                    let mut conn = Conn::open(addr)?;
                    let mut log = QueryLog::default();
                    let mut last: Option<Instant> = None;
                    loop {
                        // relaxed: the counter only hands out distinct indices.
                        let taken = cursor.fetch_add(1, Ordering::Relaxed);
                        if limit.reached(taken) {
                            break;
                        }
                        let index = (taken % frames.len() as u64) as usize;
                        let sent = Instant::now();
                        if let Some(last) = last {
                            log.lag_ms.push(ms(sent - last));
                        }
                        let response = conn.call(&frames[index])?;
                        let answered = Instant::now();
                        let answer = match response {
                            Response::EdgeWeight(weight) => Some(Answer::Edge(weight)),
                            Response::Vertices(vertices) => Some(Answer::Vertices(vertices)),
                            _ => None,
                        };
                        log.records.push(QueryRecord {
                            index: index as u32,
                            at_s: (answered - start).as_secs_f64(),
                            latency_us: (answered - sent).as_secs_f64() * 1e6,
                            answer,
                        });
                        last = Some(answered);
                    }
                    Ok(log)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("query thread panicked")).collect::<Vec<_>>()
    });
    let mut total = QueryLog { wall_s: start.elapsed().as_secs_f64(), ..QueryLog::default() };
    for log in logs {
        let log = log?;
        total.records.extend(log.records);
        total.lag_ms.extend(log.lag_ms);
    }
    Ok(total)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
