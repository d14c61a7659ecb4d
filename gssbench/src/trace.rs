//! Spans and counter deltas for the traced replay.
//!
//! A span records one call from the benchmark into a layer's public function: its
//! name (`layer.operation`), start, end, the span that caused it and the request it
//! belongs to. Spans stay in memory and are summarised when the replay ends; a span's
//! self time is its duration minus what its child spans cover.
//!
//! Counters are the pager and log counters `GssSketch::detailed_stats` reports, read per
//! shard straight from each shard's file store, because `detailed_stats` also walks the
//! node table and would cost more than the calls it brackets.

use gss_core::ShardedGss;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans named with this prefix are the tracer's own bookkeeping, not program work.
pub const TRACE_LAYER: &str = "trace.";
/// Spans named with this prefix are the replay loop itself (the request envelope).
pub const REQUEST_SPAN: &str = "replay.request";

pub struct Spans {
    origin: Instant,
    name: Vec<&'static str>,
    start: Vec<u64>,
    end: Vec<u64>,
    parent: Vec<Option<u32>>,
    request: Vec<u64>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            name: Vec::new(),
            start: Vec::new(),
            end: Vec::new(),
            parent: Vec::new(),
            request: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let at = self.now();
        self.name.push(name);
        self.start.push(at);
        self.end.push(at);
        self.parent.push(parent.map(|p| p as u32));
        self.request.push(request);
        self.name.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.end[span] = self.now();
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, parent, request);
        let out = f();
        self.close(span);
        out
    }

    pub fn duration_ns(&self, span: usize) -> u64 {
        self.end[span] - self.start[span]
    }

    /// Durations in ns of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        (0..self.name.len())
            .filter(|&s| self.name[s] == name)
            .map(|s| self.duration_ns(s) as f64)
            .collect()
    }

    /// Per request: the summed duration of its spans whose name passes `keep`.
    pub fn per_request(&self, keep: impl Fn(&str) -> bool) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in 0..self.name.len() {
            if keep(self.name[s]) {
                *out.entry(self.request[s]).or_insert(0.0) += self.duration_ns(s) as f64;
            }
        }
        out
    }

    /// Per span name: (count, total ns, self ns).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.name.len()];
        for (s, parent) in self.parent.iter().enumerate() {
            if let Some(p) = parent {
                child_ns[*p as usize] += self.duration_ns(s);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, children) in child_ns.iter().enumerate() {
            let entry = out.entry(self.name[s]).or_default();
            entry.0 += 1;
            entry.1 += self.duration_ns(s);
            entry.2 += self.duration_ns(s).saturating_sub(*children);
        }
        out
    }

    /// Total self time of spans that are program work: neither the tracer's bookkeeping
    /// nor the replay envelope.
    pub fn attributed_ns(&self) -> u64 {
        self.summary()
            .iter()
            .filter(|(name, _)| !name.starts_with(TRACE_LAYER) && **name != REQUEST_SPAN)
            .map(|(_, &(_, _, self_ns))| self_ns)
            .sum()
    }

    /// Total time of the tracer's own bookkeeping spans.
    pub fn bookkeeping_ns(&self) -> u64 {
        self.summary()
            .iter()
            .filter(|(name, _)| name.starts_with(TRACE_LAYER))
            .map(|(_, &(_, total, _))| total)
            .sum()
    }

    pub fn absorb(&mut self, other: Spans) {
        let offset = self.name.len() as u32;
        let shift = other.origin.saturating_duration_since(self.origin).as_nanos() as u64;
        self.name.extend(other.name);
        self.start.extend(other.start.iter().map(|t| t + shift));
        self.end.extend(other.end.iter().map(|t| t + shift));
        self.parent.extend(other.parent.iter().map(|p| p.map(|p| p + offset)));
        self.request.extend(other.request);
    }
}

/// The store counters a traced call brackets.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub lookups: u64,
    pub faults: u64,
    pub latch_waits: u64,
    pub pages_flushed: u64,
    pub wal_bytes: u64,
    pub wal_flushes: u64,
    pub group_commits: u64,
    pub group_waits: u64,
    pub fsyncs: u64,
    pub checkpoints: u64,
}

impl Counters {
    /// Sums every shard's page-cache and durability counters.
    pub fn read(store: &ShardedGss) -> Self {
        let mut total = Counters::default();
        for shard in 0..store.shard_count() {
            store.with_shard_read(shard, |sketch| {
                if let Some(file) = sketch.room_storage().as_file() {
                    let pages = file.page_stats();
                    let log = file.durability_stats();
                    total.lookups += pages.lookups;
                    total.faults += pages.faults;
                    total.latch_waits += pages.latch_waits;
                    total.pages_flushed += log.pages_written + log.pages_written_background;
                    total.wal_bytes += log.wal_bytes;
                    total.wal_flushes += log.wal_flushes;
                    total.group_commits += log.wal_group_commits;
                    total.group_waits += log.wal_group_waits;
                    total.fsyncs += log.wal_fsyncs;
                    total.checkpoints += log.checkpoints;
                }
            });
        }
        total
    }

    /// `self - before`, where every counter but the current log size only grows. The
    /// log shrinks at a checkpoint, so its growth counts only across calls without one.
    pub fn since(&self, before: &Counters) -> Counters {
        let no_checkpoint = self.checkpoints == before.checkpoints;
        Counters {
            lookups: self.lookups - before.lookups,
            faults: self.faults - before.faults,
            latch_waits: self.latch_waits - before.latch_waits,
            pages_flushed: self.pages_flushed - before.pages_flushed,
            wal_bytes: if no_checkpoint {
                self.wal_bytes.saturating_sub(before.wal_bytes)
            } else {
                0
            },
            wal_flushes: self.wal_flushes - before.wal_flushes,
            group_commits: self.group_commits - before.group_commits,
            group_waits: self.group_waits - before.group_waits,
            fsyncs: self.fsyncs - before.fsyncs,
            checkpoints: self.checkpoints - before.checkpoints,
        }
    }

    pub fn add(&mut self, d: &Counters) {
        self.lookups += d.lookups;
        self.faults += d.faults;
        self.latch_waits += d.latch_waits;
        self.pages_flushed += d.pages_flushed;
        self.wal_bytes += d.wal_bytes;
        self.wal_flushes += d.wal_flushes;
        self.group_commits += d.group_commits;
        self.group_waits += d.group_waits;
        self.fsyncs += d.fsyncs;
        self.checkpoints += d.checkpoints;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_bookkeeping_is_apart() {
        let mut spans = Spans::new(Instant::now());
        let request = spans.open(REQUEST_SPAN, None, 0);
        spans.time("sharded.edge", Some(request), 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.time("trace.counters", Some(request), 0, || {});
        spans.close(request);
        let summary = spans.summary();
        let (_, total, self_ns) = summary[REQUEST_SPAN];
        assert!(self_ns < total);
        assert!(spans.attributed_ns() >= 2_000_000);
        assert_eq!(
            spans.per_request(|n| n.starts_with("sharded."))[&0],
            spans.durations("sharded.edge")[0]
        );
    }
}
