//! Sharded concurrent ingest: [`ShardedGss`].
//!
//! Graph streams are frequently consumed by several ingest threads (the paper's CAIDA use
//! case is a multi-link packet capture).  [`ShardedGss`] runs `N` independent sketch
//! shards behind per-shard locks, so writers touching different shards never contend
//! (`N = 1` is a single sketch behind a single lock).
//!
//! ## Sharding semantics
//!
//! Every stream item is routed to the shard owning its **source vertex** (a hash of the
//! source id modulo the shard count).  Because all `(s, *)` edges live in one shard:
//!
//! * **edge queries** and **1-hop successor queries** are answered by the source's shard
//!   alone — one read lock, same cost as a single sketch;
//! * **1-hop precursor queries** fan out: edges *into* a vertex may come from sources in
//!   any shard, so every shard is scanned and the answers are unioned (sorted, deduped).
//!   Each shard's column scans are steered by its bucket-occupancy index
//!   ([`crate::storage::OccupancyIndex`]), so the fan-out costs `shards ×` a
//!   load-proportional scan rather than `shards ×` a full-geometry scan — and per-shard
//!   load factors are `1/shards` of a single sketch's to begin with;
//! * **stats** aggregate field-wise across shards ([`SummaryStats::merged_with`]);
//!   [`ShardedGss::detailed_stats`] likewise sums the per-shard [`GssStats`] — note that a
//!   vertex appearing in several shards is counted once per shard there.
//!
//! All shards share one [`GssConfig`] (including the hash seed), so they stay mergeable:
//! [`ShardedGss::merge`] combines them through the existing [`GssSketch::merge_all`]
//! machinery into the single sketch a sequential run over the concatenated stream would
//! have produced (up to order-independent room placement).  Memory is `shards ×` a single
//! sketch of the same width; shrink `width` accordingly for equal-memory comparisons.
//!
//! Accuracy is unchanged in kind: every shard keeps GSS's one-sided error, so the sharded
//! front-end never under-estimates a weight and never drops a true neighbour.  Spreading
//! edges over `N` matrices *lowers* each shard's load factor, which in practice shortens
//! candidate probes and reduces buffer spills — the source of the ingest speed-up even
//! without contention.

use crate::config::{Durability, GroupCommit, GssConfig};
use crate::error::ConfigError;
use crate::group_commit::GroupCommitter;
use crate::pager::witness::{self, LockClass};
use crate::sketch::GssSketch;
use crate::stats::GssStats;
use crate::storage::StorageBackend;
use gss_graph::{StreamEdge, SummaryRead, SummaryStats, SummaryWrite, VertexId, Weight};
use parking_lot::RwLock;
use std::sync::Arc;

/// A cloneable, thread-safe handle to a set of GSS sketch shards partitioned by source
/// vertex (see the [module docs](self) for the sharding semantics).
#[derive(Debug, Clone)]
pub struct ShardedGss {
    config: GssConfig,
    shards: Arc<Vec<RwLock<GssSketch>>>,
    /// Per-shard lock-free commit acknowledgers (`None` for in-memory shards), captured
    /// at construction so the batched two-phase commit's acknowledgement pass never
    /// re-takes a shard lock.
    ack_handles: Arc<Vec<Option<crate::file_store::WalAckHandle>>>,
}

impl ShardedGss {
    /// Builds `shards` empty sketches sharing one configuration.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the configuration is invalid or `shards == 0`.
    pub fn new(config: GssConfig, shards: usize) -> Result<Self, ConfigError> {
        Self::with_storage(config, shards, &StorageBackend::Memory)
    }

    /// Builds `shards` empty sketches sharing one configuration on an explicit storage
    /// backend.  A [`StorageBackend::File`] base path fans out to one file per shard
    /// (`<name>.shard0`, `<name>.shard1`, …), so each shard owns its page cache and its
    /// portion of the on-disk matrix.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the configuration is invalid, `shards == 0`, or a
    /// shard file cannot be created.
    pub fn with_storage(
        config: GssConfig,
        shards: usize,
        storage: &StorageBackend,
    ) -> Result<Self, ConfigError> {
        Self::with_storage_grouped(config, shards, storage, GroupCommit::default())
    }

    /// [`with_storage`](Self::with_storage) with an explicit group-commit knob.  Each
    /// file-backed shard owns its own write-ahead log (`<name>.shardN.wal`) alongside its
    /// sketch file, so shards recover independently after a crash.  All shard logs
    /// register with **one** coordinator, so a single cadence `fdatasync` covers every
    /// shard that wrote since the last one — N writer threads share one fsync schedule
    /// instead of paying one each.
    ///
    /// # Errors
    /// As [`with_storage`](Self::with_storage).
    pub fn with_storage_grouped(
        config: GssConfig,
        shards: usize,
        storage: &StorageBackend,
        group_commit: GroupCommit,
    ) -> Result<Self, ConfigError> {
        if shards == 0 {
            return Err(ConfigError::new("need at least one shard"));
        }
        let group = GroupCommitter::new(group_commit);
        let shards = (0..shards)
            .map(|index| {
                GssSketch::with_storage_grouped(
                    config,
                    storage.for_shard(index),
                    Arc::clone(&group),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let ack_handles = shards.iter().map(GssSketch::wal_ack_handle).collect();
        let shards = shards.into_iter().map(RwLock::new).collect();
        Ok(Self { config, shards: Arc::new(shards), ack_handles: Arc::new(ack_handles) })
    }

    /// Reopens an existing sharded, file-backed sketch **in place**: the per-shard
    /// files a previous run created at `<base>.shard0 … <base>.shard{N-1}` (see
    /// [`with_storage`](Self::with_storage)) become this handle's live storage, each
    /// shard recovering independently through its own write-ahead log — this is the
    /// restart path of a long-lived service (`gss-server` reopens every tenant this
    /// way).  All shard logs register with one fresh group-commit coordinator built
    /// from `group_commit`.  `durability` has one value and is ignored; the parameter
    /// stays because the `gssbench` harness passes it.
    ///
    /// # Errors
    /// Returns a [`PersistenceError`](crate::PersistenceError) if `shards == 0`, any shard file is missing or
    /// unrecoverable, or the shards disagree on their configuration (files from
    /// different builds mixed in one directory).
    pub fn open_sharded(
        base: impl AsRef<std::path::Path>,
        shards: usize,
        cache_pages: usize,
        _durability: Durability,
        group_commit: GroupCommit,
    ) -> Result<Self, crate::persistence::PersistenceError> {
        use crate::persistence::PersistenceError;
        if shards == 0 {
            return Err(PersistenceError::InvalidConfig("need at least one shard".to_string()));
        }
        let backend = StorageBackend::File { path: base.as_ref().to_path_buf(), cache_pages };
        let group = GroupCommitter::new(group_commit);
        let opened = (0..shards)
            .map(|index| {
                let StorageBackend::File { path, cache_pages } = backend.for_shard(index) else {
                    unreachable!("file backend shards stay file-backed");
                };
                GssSketch::open_file_grouped(path, cache_pages, Arc::clone(&group))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let config = *opened[0].config();
        if let Some(odd) = opened.iter().find(|sketch| *sketch.config() != config) {
            return Err(PersistenceError::Corrupt(format!(
                "shard files disagree on their configuration (width {} vs {}) — \
                 mixed builds in one directory?",
                config.width,
                odd.config().width
            )));
        }
        let ack_handles = opened.iter().map(GssSketch::wal_ack_handle).collect();
        let shards = opened.into_iter().map(RwLock::new).collect();
        Ok(Self { config, shards: Arc::new(shards), ack_handles: Arc::new(ack_handles) })
    }

    /// Whether **any** shard's backing store has fail-stopped (always `false` for
    /// in-memory shards) — the cheap health probe a serving layer checks before
    /// translating [`try_insert_batch`](Self::try_insert_batch) failures to the wire.
    pub fn is_poisoned(&self) -> bool {
        self.shards.iter().any(|shard| {
            let _shard_held = witness::acquire(LockClass::Shard);
            shard.read().is_poisoned()
        })
    }

    /// Checkpoints every file-backed shard ([`GssSketch::sync`]), taking each shard's
    /// write lock in turn.  A no-op for in-memory shards.
    ///
    /// # Errors
    /// Returns the first shard's [`PersistenceError`](crate::persistence::PersistenceError),
    /// leaving later shards unsynced (each shard file is independently consistent
    /// regardless).
    pub fn sync(&self) -> Result<(), crate::persistence::PersistenceError> {
        for shard in self.shards.iter() {
            let _shard_held = witness::acquire(LockClass::Shard);
            shard.write().sync()?;
        }
        Ok(())
    }

    /// Builds a sharded sketch whose **total** matrix memory equals one sketch of
    /// `config`: each shard's width is shrunk to `width / √shards`
    /// ([`GssConfig::equal_memory_width`]), so sharded-vs-single comparisons hold memory
    /// constant instead of multiplying it by the shard count.
    ///
    /// The narrower per-shard matrix raises per-shard load factor, trading a little of
    /// the accuracy headroom of [`ShardedGss::new`] for a fair memory budget — this is
    /// the constructor to use when reproducing the paper's equal-memory comparisons on a
    /// sharded front-end.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the configuration is invalid or `shards == 0`.
    pub fn new_equal_memory(config: GssConfig, shards: usize) -> Result<Self, ConfigError> {
        Self::with_storage_equal_memory(config, shards, &StorageBackend::Memory)
    }

    /// [`new_equal_memory`](Self::new_equal_memory) on an explicit storage backend: the
    /// single place where the equal-memory width rule meets shard construction.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the configuration is invalid, `shards == 0`, or a
    /// shard file cannot be created.
    pub fn with_storage_equal_memory(
        config: GssConfig,
        shards: usize,
        storage: &StorageBackend,
    ) -> Result<Self, ConfigError> {
        Self::with_storage_equal_memory_grouped(config, shards, storage, GroupCommit::default())
    }

    /// [`with_storage_equal_memory`](Self::with_storage_equal_memory) with an explicit
    /// group-commit knob (see [`with_storage_grouped`](Self::with_storage_grouped)).
    ///
    /// # Errors
    /// As [`with_storage`](Self::with_storage).
    pub fn with_storage_equal_memory_grouped(
        config: GssConfig,
        shards: usize,
        storage: &StorageBackend,
        group_commit: GroupCommit,
    ) -> Result<Self, ConfigError> {
        let per_shard = GssConfig { width: config.equal_memory_width(shards), ..config };
        Self::with_storage_grouped(per_shard, shards, storage, group_commit)
    }

    /// Builds a sharded sketch with one shard per available CPU (capped at 16).
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the configuration is invalid.
    pub fn with_default_shards(config: GssConfig) -> Result<Self, ConfigError> {
        let shards =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(4);
        Self::new(config, shards.clamp(1, 16))
    }

    /// Wraps an existing sketch as a single-shard (single-lock) handle.
    pub fn from_sketch(sketch: GssSketch) -> Self {
        let config = *sketch.config();
        let ack_handles = Arc::new(vec![sketch.wal_ack_handle()]);
        Self { config, shards: Arc::new(vec![RwLock::new(sketch)]), ack_handles }
    }

    /// The configuration every shard was built with.
    pub fn config(&self) -> &GssConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `source` (a SplitMix64 mix of the source id, reduced modulo the
    /// shard count — deliberately independent of the sketch's own node hash).
    fn shard_index(&self, source: VertexId) -> usize {
        let mut z = source.wrapping_add(0xD6E8_FEB8_6659_FD93);
        z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        z ^= z >> 29;
        (z % self.shards.len() as u64) as usize
    }

    /// Inserts a stream item through a shared reference, locking only the owning shard.
    pub fn insert(&self, source: VertexId, destination: VertexId, weight: Weight) {
        let _shard_held = witness::acquire(LockClass::Shard);
        self.shards[self.shard_index(source)].write().insert(source, destination, weight);
    }

    /// Inserts a batch through a shared reference: items are grouped by shard, then each
    /// shard is locked once and fed its sub-batch via [`GssSketch::insert_batch`] — so a
    /// batch both amortises hashing *and* takes each lock once instead of per item.
    pub fn insert_batch(&self, items: &[StreamEdge]) {
        if self.shards.len() == 1 {
            let _shard_held = witness::acquire(LockClass::Shard);
            self.shards[0].write().insert_batch(items);
            return;
        }
        // Not `vec![Vec::with_capacity(..); n]`: `Vec::clone` drops capacity, which would
        // silently discard the pre-sizing for every buffer but one.
        let mut per_shard: Vec<Vec<StreamEdge>> = (0..self.shards.len())
            .map(|_| Vec::with_capacity(items.len() / self.shards.len() + 1))
            .collect();
        for item in items {
            per_shard[self.shard_index(item.source)].push(*item);
        }
        // Two-phase commit across the shards: stage every sub-batch (mutations plus
        // commit frame) first, acknowledge second.  By the time the acknowledgement
        // pass runs, drain rounds led by concurrent writers have usually covered the
        // earlier shards' log bytes, so most acknowledgements return on the
        // coordinator's already-drained fast path instead of each leading a small
        // drain round of its own — the per-call round count stops scaling with the
        // shard count.  The acknowledgement pass runs through the lock-free per-shard
        // handles, so it never re-takes a shard lock.
        // Rotation striping: each call starts its shard sweep at a different offset, so
        // concurrent writers work distinct shards instead of convoying head-of-line on
        // shard 0, 1, … in lockstep (acute when writer threads outnumber cores and a
        // preempted lock holder stalls every follower).
        static SWEEP_OFFSET: std::sync::atomic::AtomicUsize =
            std::sync::atomic::AtomicUsize::new(0);
        // relaxed: only the spread of starting offsets matters, not ordering.
        let start = SWEEP_OFFSET.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut pending: Vec<usize> = (0..self.shards.len())
            .map(|step| (start + step) % self.shards.len())
            .filter(|&index| !per_shard[index].is_empty())
            .collect();
        let mut acks: Vec<(usize, crate::file_store::WalAck)> = Vec::with_capacity(pending.len());
        // Opportunistic sweep first: take whichever shard locks are free right now, so a
        // writer never parks behind a peer while another shard's sub-batch could
        // proceed.  Whatever stays contended is processed blocking afterwards.
        pending.retain(|&index| {
            let _shard_held = witness::acquire(LockClass::Shard);
            match self.shards[index].try_write() {
                Some(mut shard) => {
                    if let Some(ack) = shard.insert_batch_deferred(&per_shard[index]) {
                        acks.push((index, ack));
                    }
                    false
                }
                None => true,
            }
        });
        for index in pending {
            let _shard_held = witness::acquire(LockClass::Shard);
            if let Some(ack) = self.shards[index].write().insert_batch_deferred(&per_shard[index]) {
                acks.push((index, ack));
            }
        }
        for (index, ack) in acks {
            if let Some(handle) = &self.ack_handles[index] {
                handle.ack(ack);
            }
        }
    }

    /// [`insert_batch`](Self::insert_batch) with typed fail-stop errors instead of the
    /// storage-contract panics.  Shards fail independently: a fault poisons only its own
    /// shard, the remaining shards still stage and acknowledge their sub-batches, and
    /// the **first** fault encountered is returned.  A failed shard's sub-batch may be
    /// partially applied and is never acknowledged; its
    /// [`durability_report`](Self::durability_report) quantifies any breach.
    pub fn try_insert_batch(&self, items: &[StreamEdge]) -> Result<(), crate::error::GssError> {
        let mut per_shard: Vec<Vec<StreamEdge>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for item in items {
            per_shard[self.shard_index(item.source)].push(*item);
        }
        let mut first_fault: Option<crate::error::StoreFault> = None;
        let mut acks: Vec<(usize, crate::file_store::WalAck)> = Vec::new();
        for (index, sub_batch) in per_shard.iter().enumerate() {
            if sub_batch.is_empty() {
                continue;
            }
            let _shard_held = witness::acquire(LockClass::Shard);
            match self.shards[index].write().try_insert_batch_deferred(sub_batch) {
                Ok(Some(ack)) => acks.push((index, ack)),
                Ok(None) => {}
                Err(fault) => first_fault = first_fault.or(Some(fault)),
            }
        }
        for (index, ack) in acks {
            if let Some(handle) = &self.ack_handles[index] {
                if let Err(fault) = handle.try_ack(ack) {
                    first_fault = first_fault.or(Some(fault));
                }
            }
        }
        match first_fault {
            Some(fault) => Err(fault.into()),
            None => Ok(()),
        }
    }

    /// The honest durability account aggregated across shards: `poisoned` when **any**
    /// shard fail-stopped, `cause` the first poisoned shard's fault, counts summed.
    pub fn durability_report(&self) -> crate::error::DurabilityReport {
        let mut total = crate::error::DurabilityReport::default();
        for shard in self.shards.iter() {
            let report = shard.read().durability_report();
            total.poisoned |= report.poisoned;
            if total.cause.is_none() {
                total.cause = report.cause;
            }
            total.acked_items += report.acked_items;
            total.durable_items += report.durable_items;
            total.breached_items += report.breached_items;
        }
        total
    }

    /// Edge query primitive (answered by the source's shard).
    pub fn edge_weight(&self, source: VertexId, destination: VertexId) -> Option<Weight> {
        let _shard_held = witness::acquire(LockClass::Shard);
        self.shards[self.shard_index(source)].read().edge_weight(source, destination)
    }

    /// 1-hop successor query primitive (answered by the vertex's shard).
    pub fn successors(&self, vertex: VertexId) -> Vec<VertexId> {
        let _shard_held = witness::acquire(LockClass::Shard);
        self.shards[self.shard_index(vertex)].read().successors(vertex)
    }

    /// 1-hop precursor query primitive: fans out to every shard and unions the answers.
    pub fn precursors(&self, vertex: VertexId) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = Vec::new();
        for shard in self.shards.iter() {
            let _shard_held = witness::acquire(LockClass::Shard);
            out.extend(shard.read().precursors(vertex));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Structural statistics aggregated field-wise across shards.
    pub fn stats(&self) -> SummaryStats {
        self.shards
            .iter()
            .map(|shard| shard.read().stats())
            .fold(SummaryStats::default(), |acc, stats| acc.merged_with(&stats))
    }

    /// Detailed statistics summed field-wise across shards (geometry fields are per-shard;
    /// vertices hashed in several shards are counted once per shard).
    pub fn detailed_stats(&self) -> GssStats {
        let per_shard: Vec<GssStats> =
            self.shards.iter().map(|shard| shard.read().detailed_stats()).collect();
        let mut total = per_shard[0];
        for stats in &per_shard[1..] {
            total.items_inserted += stats.items_inserted;
            total.matrix_edges += stats.matrix_edges;
            total.buffered_edges += stats.buffered_edges;
            total.matrix_bytes += stats.matrix_bytes;
            total.occupancy_index_bytes += stats.occupancy_index_bytes;
            total.buffer_bytes += stats.buffer_bytes;
            total.node_map_bytes += stats.node_map_bytes;
            total.distinct_hashed_nodes += stats.distinct_hashed_nodes;
            total.colliding_hashes += stats.colliding_hashes;
            total.wal_bytes += stats.wal_bytes;
            total.wal_flushes += stats.wal_flushes;
            total.wal_group_commits += stats.wal_group_commits;
            total.wal_group_waits += stats.wal_group_waits;
            total.fsyncs += stats.fsyncs;
            total.pages_flushed += stats.pages_flushed;
            total.checkpoints += stats.checkpoints;
            total.page_lookups += stats.page_lookups;
            total.page_faults += stats.page_faults;
            total.page_latch_waits += stats.page_latch_waits;
            total.io_retries += stats.io_retries;
            total.injected_faults += stats.injected_faults;
            total.store_poisoned += stats.store_poisoned;
        }
        let stored = total.matrix_edges + total.buffered_edges;
        total.buffer_percentage =
            if stored == 0 { 0.0 } else { total.buffered_edges as f64 / stored as f64 };
        total.matrix_load_factor =
            per_shard.iter().map(|s| s.matrix_load_factor).sum::<f64>() / per_shard.len() as f64;
        total
    }

    /// Runs a closure with read access to one shard (for white-box inspection).
    ///
    /// # Panics
    /// Panics if `index >= self.shard_count()`.
    pub fn with_shard_read<R>(&self, index: usize, f: impl FnOnce(&GssSketch) -> R) -> R {
        let _shard_held = witness::acquire(LockClass::Shard);
        f(&self.shards[index].read())
    }

    /// Merges `sketches` into one, carrying the summed stream-item counter across (the
    /// merge machinery replays stored edges and does not count items itself).
    fn merge_sketches(config: GssConfig, sketches: &[GssSketch]) -> GssSketch {
        let mut merged = GssSketch::merge_all(config, sketches)
            .expect("shards share one configuration by construction");
        merged.set_items_inserted(sketches.iter().map(GssSketch::items_inserted).sum());
        merged
    }

    /// Merges all shards into a single sequential sketch through the merge machinery
    /// (shards share a configuration by construction, so merging cannot fail).  The
    /// merged sketch keeps the total `items_inserted` of all shards.
    pub fn merge(&self) -> GssSketch {
        let sketches: Vec<GssSketch> =
            self.shards.iter().map(|shard| shard.read().clone()).collect();
        Self::merge_sketches(self.config, &sketches)
    }

    /// Consumes the handle and returns the merged sketch if this was the last clone.
    ///
    /// # Errors
    /// Returns `self` unchanged when other handles still exist.
    pub fn try_into_inner(self) -> Result<GssSketch, Self> {
        let config = self.config;
        let ack_handles = self.ack_handles;
        match Arc::try_unwrap(self.shards) {
            Ok(shards) => {
                let mut sketches = shards.into_iter().map(RwLock::into_inner);
                if sketches.len() == 1 {
                    return Ok(sketches.next().expect("length checked"));
                }
                let sketches: Vec<GssSketch> = sketches.collect();
                Ok(Self::merge_sketches(config, &sketches))
            }
            Err(shards) => Err(Self { config, shards, ack_handles }),
        }
    }

    /// Drops every shard with no checkpoint ([`GssSketch::abandon`] per shard), leaving
    /// file-backed shard files exactly as a process kill would — for crash tests over
    /// concurrent writers.
    ///
    /// # Errors
    /// Returns `self` unchanged when other handles still exist (they could still write).
    pub fn abandon(self) -> Result<(), Self> {
        let config = self.config;
        let ack_handles = self.ack_handles;
        match Arc::try_unwrap(self.shards) {
            Ok(shards) => {
                for shard in shards {
                    shard.into_inner().abandon();
                }
                Ok(())
            }
            Err(shards) => Err(Self { config, shards, ack_handles }),
        }
    }
}

impl SummaryRead for ShardedGss {
    fn edge_weight(&self, source: VertexId, destination: VertexId) -> Option<Weight> {
        ShardedGss::edge_weight(self, source, destination)
    }

    fn successors(&self, vertex: VertexId) -> Vec<VertexId> {
        ShardedGss::successors(self, vertex)
    }

    fn precursors(&self, vertex: VertexId) -> Vec<VertexId> {
        ShardedGss::precursors(self, vertex)
    }

    fn stats(&self) -> SummaryStats {
        ShardedGss::stats(self)
    }

    fn name(&self) -> String {
        format!(
            "ShardedGss(shards={},{})",
            self.shard_count(),
            self.shards[0].read().name().trim_start_matches("GSS(").trim_end_matches(')')
        )
    }
}

impl SummaryWrite for ShardedGss {
    fn insert(&mut self, source: VertexId, destination: VertexId, weight: Weight) {
        ShardedGss::insert(self, source, destination, weight);
    }

    fn insert_batch(&mut self, items: &[StreamEdge]) {
        ShardedGss::insert_batch(self, items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_graph::AdjacencyListGraph;
    use std::thread;

    fn stream(seed: u64, items: usize) -> Vec<StreamEdge> {
        let mut state = seed | 1;
        (0..items)
            .map(|t| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                StreamEdge::new(
                    (state >> 33) % 300,
                    (state >> 17) % 300,
                    t as u64,
                    (state % 7) as i64 + 1,
                )
            })
            .collect()
    }

    #[test]
    fn concurrent_inserts_from_multiple_threads_are_all_applied() {
        let sketch = ShardedGss::new(GssConfig::paper_default(64), 4).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let handle = sketch.clone();
                thread::spawn(move || {
                    for i in 0..250u64 {
                        handle.insert(t, 1000 + i, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(sketch.stats().items_inserted, 1000);
        for t in 0..4u64 {
            assert_eq!(sketch.successors(t).len(), 250);
        }
    }

    #[test]
    fn concurrent_batched_writers_never_lose_items() {
        let sketch = ShardedGss::new(GssConfig::paper_small(64), 4).unwrap();
        let items = stream(11, 4000);
        let threads: Vec<_> = items
            .chunks(1000)
            .map(|chunk| {
                let handle = sketch.clone();
                let chunk = chunk.to_vec();
                thread::spawn(move || handle.insert_batch(&chunk))
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(sketch.stats().items_inserted, 4000);
        let mut exact = AdjacencyListGraph::new();
        for item in &items {
            exact.insert(item.source, item.destination, item.weight);
        }
        for (key, weight) in exact.edges() {
            let reported = sketch.edge_weight(key.source, key.destination).unwrap_or(0);
            assert!(reported >= weight, "edge {key:?} under-estimated");
        }
    }

    #[test]
    fn queries_see_prior_inserts() {
        let sketch = ShardedGss::new(GssConfig::paper_default(32), 4).unwrap();
        sketch.insert(1, 2, 5);
        assert_eq!(sketch.edge_weight(1, 2), Some(5));
        assert_eq!(sketch.successors(1), vec![2]);
        assert_eq!(sketch.precursors(2), vec![1]);
        assert_eq!(sketch.detailed_stats().matrix_edges, 1);
        let total: usize =
            (0..4).map(|i| sketch.with_shard_read(i, |inner| inner.stored_edges())).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn precursor_queries_union_across_shards() {
        // Many different sources (spread over all shards) point at one destination; a
        // precursor query must recover every one of them.
        let sketch = ShardedGss::new(GssConfig::paper_default(64), 4).unwrap();
        for source in 0..40u64 {
            sketch.insert(source, 7777, 1);
        }
        let precursors = sketch.precursors(7777);
        assert_eq!(precursors, (0..40u64).collect::<Vec<_>>());
    }

    #[test]
    fn merged_shards_answer_like_a_sequential_sketch() {
        let config = GssConfig::paper_small(64);
        let items = stream(9, 2000);
        let sharded = ShardedGss::new(config, 4).unwrap();
        let mut reference = GssSketch::new(config).unwrap();
        let mut exact = AdjacencyListGraph::new();
        for item in &items {
            sharded.insert(item.source, item.destination, item.weight);
            reference.insert(item.source, item.destination, item.weight);
            exact.insert(item.source, item.destination, item.weight);
        }
        let merged = sharded.merge();
        assert_eq!(merged.items_inserted(), 2000); // the item counter survives the merge
        for (key, weight) in exact.edges() {
            let estimate = merged.edge_weight(key.source, key.destination).unwrap_or(0);
            assert!(estimate >= weight, "edge {key:?} under-estimated after merge");
        }
        // Every shard received some share of a 2000-item stream (the router is a hash).
        for index in 0..4 {
            assert!(sharded.with_shard_read(index, |inner| inner.items_inserted()) > 0);
        }
    }

    #[test]
    fn sharded_queries_keep_one_sided_error() {
        let items = stream(23, 3000);
        let sharded = ShardedGss::new(GssConfig::paper_small(48), 4).unwrap();
        let mut exact = AdjacencyListGraph::new();
        sharded.insert_batch(&items);
        for item in &items {
            exact.insert(item.source, item.destination, item.weight);
        }
        for (key, weight) in exact.edges() {
            let reported = sharded
                .edge_weight(key.source, key.destination)
                .expect("true edges are never reported absent");
            assert!(reported >= weight, "edge {key:?} under-estimated");
        }
        for v in exact.vertices().into_iter().take(100) {
            let successors = sharded.successors(v);
            for truth in exact.successors(v) {
                assert!(successors.contains(&truth), "missing successor {truth} of {v}");
            }
            let precursors = sharded.precursors(v);
            for truth in exact.precursors(v) {
                assert!(precursors.contains(&truth), "missing precursor {truth} of {v}");
            }
        }
    }

    #[test]
    fn try_into_inner_returns_sketch_when_unique() {
        let sketch = ShardedGss::from_sketch(GssSketch::with_width(16));
        assert_eq!(sketch.shard_count(), 1);
        let inner = sketch.try_into_inner().expect("single handle");
        assert_eq!(inner.items_inserted(), 0);

        let sharded = ShardedGss::new(GssConfig::paper_default(16), 3).unwrap();
        sharded.insert(1, 2, 4);
        let merged = sharded.try_into_inner().expect("single handle");
        assert_eq!(merged.edge_weight(1, 2), Some(4));
        // Multi-shard unwrap carries the item counter, like the single-shard path.
        assert_eq!(merged.items_inserted(), 1);
    }

    #[test]
    fn try_into_inner_fails_when_shared() {
        let sketch = ShardedGss::new(GssConfig::paper_default(16), 2).unwrap();
        let clone = sketch.clone();
        assert!(sketch.try_into_inner().is_err());
        drop(clone);
    }

    #[test]
    fn zero_shards_is_rejected_and_defaults_are_sane() {
        assert!(ShardedGss::new(GssConfig::paper_default(8), 0).is_err());
        let default = ShardedGss::with_default_shards(GssConfig::paper_default(8)).unwrap();
        assert!((1..=16).contains(&default.shard_count()));
    }

    #[test]
    fn trait_object_access_works_for_both_halves() {
        let mut sketch = ShardedGss::new(GssConfig::paper_default(32), 2).unwrap();
        {
            let writer: &mut dyn SummaryWrite = &mut sketch;
            writer.insert(1, 2, 3);
            writer.insert_batch(&[StreamEdge::new(1, 2, 0, 2)]);
        }
        let reader: &dyn SummaryRead = &sketch;
        assert_eq!(reader.edge_weight(1, 2), Some(5));
        assert_eq!(reader.stats().items_inserted, 2);
        assert!(reader.name().contains("ShardedGss(shards=2"));
    }

    #[test]
    fn equal_memory_mode_keeps_the_total_matrix_budget() {
        let config = GssConfig::paper_default(64);
        let single = GssSketch::new(config).unwrap();
        let sharded = ShardedGss::new_equal_memory(config, 4).unwrap();
        assert_eq!(sharded.config().width, 32);
        let total: usize =
            (0..4).map(|i| sharded.with_shard_read(i, |inner| inner.config().matrix_bytes())).sum();
        assert_eq!(total, single.config().matrix_bytes());
        // Still a working sketch with one-sided error.
        let items = stream(31, 2000);
        sharded.insert_batch(&items);
        let mut exact = AdjacencyListGraph::new();
        for item in &items {
            exact.insert(item.source, item.destination, item.weight);
        }
        for (key, weight) in exact.edges() {
            let reported = sharded.edge_weight(key.source, key.destination).unwrap_or(0);
            assert!(reported >= weight, "edge {key:?} under-estimated");
        }
        assert!(ShardedGss::new_equal_memory(config, 0).is_err());
    }

    #[test]
    fn file_backed_shards_write_one_file_each_and_reopen() {
        let base =
            std::env::temp_dir().join(format!("gss-sharded-{}-file.gss", std::process::id()));
        let config = GssConfig::paper_small(24);
        let items = stream(17, 1200);
        {
            let sharded = ShardedGss::with_storage(
                config,
                3,
                &StorageBackend::File { path: base.clone(), cache_pages: 16 },
            )
            .unwrap();
            sharded.insert_batch(&items);
            assert_eq!(sharded.stats().items_inserted, 1200);
            // Queries work while the shards live on disk.
            assert!(sharded.edge_weight(items[0].source, items[0].destination).is_some());
        } // drop syncs every shard file
        let mut total_items = 0;
        for index in 0..3 {
            let path = base.with_file_name(format!(
                "{}.shard{index}",
                base.file_name().unwrap().to_string_lossy()
            ));
            let shard = GssSketch::open_file(&path, 16).unwrap();
            assert_eq!(shard.config(), &config);
            total_items += shard.items_inserted();
            std::fs::remove_file(&path).ok();
        }
        assert_eq!(total_items, 1200);
    }

    #[test]
    fn open_sharded_reopens_every_shard_in_place() {
        let base =
            std::env::temp_dir().join(format!("gss-sharded-{}-reopen.gss", std::process::id()));
        let config = GssConfig::paper_small(24);
        let items = stream(41, 900);
        {
            let sharded = ShardedGss::with_storage(
                config,
                3,
                &StorageBackend::File { path: base.clone(), cache_pages: 16 },
            )
            .unwrap();
            sharded.insert_batch(&items);
            sharded.sync().unwrap();
        }
        let reopened =
            ShardedGss::open_sharded(&base, 3, 16, Durability::Strict, GroupCommit::default())
                .unwrap();
        assert_eq!(reopened.config(), &config);
        assert_eq!(reopened.stats().items_inserted, 900);
        assert!(!reopened.is_poisoned());
        // Still writable after reopen, and queries see both old and new items.
        reopened.insert(123_456, 654_321, 9);
        assert_eq!(reopened.edge_weight(123_456, 654_321), Some(9));
        assert!(reopened.edge_weight(items[0].source, items[0].destination).is_some());
        drop(reopened);
        for index in 0..3 {
            let path = base.with_file_name(format!(
                "{}.shard{index}",
                base.file_name().unwrap().to_string_lossy()
            ));
            std::fs::remove_file(crate::wal::wal_path(&path)).ok();
            std::fs::remove_file(&path).ok();
        }
        // Zero shards and missing files are typed errors, not panics.
        assert!(ShardedGss::open_sharded(&base, 0, 16, Durability::Strict, GroupCommit::default())
            .is_err());
        assert!(ShardedGss::open_sharded(&base, 2, 16, Durability::Strict, GroupCommit::default())
            .is_err());
    }
}
