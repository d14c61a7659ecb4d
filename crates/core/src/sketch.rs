//! The GSS sketch itself: insertion and the three query primitives.
//!
//! This is the full augmented structure of Section V — square hashing, candidate-bucket
//! sampling and multiple rooms — with the basic version of Section IV available by
//! constructing it from [`GssConfig::basic`].  The implementation follows the paper's
//! procedures closely:
//!
//! * **Edge updating** — map both endpoints with `H(·)`, derive the candidate buckets from
//!   the two address sequences, walk them in order, add the weight to a room holding the
//!   same fingerprint pair *and* index pair, otherwise claim the first free room, otherwise
//!   spill to the buffer.  Because rooms are never freed, stopping at the first free room
//!   can never split an edge across two rooms, so Theorem 1 (the storage of `G_h` is exact)
//!   holds — including under deletions, which set weights to zero but keep the room
//!   occupied.
//! * **Edge query** — probe the same candidates, then the buffer.
//! * **1-hop successor / precursor query** — scan the `r` rows (columns) of the node's
//!   address sequence, filter rooms by fingerprint and index, reverse the linear-congruential
//!   mapping to recover the neighbour's hash, then translate hashes back to original vertex
//!   ids through the `⟨H(v), v⟩` table.

use crate::buffer::LeftoverBuffer;
use crate::config::{GroupCommit, GssConfig};
use crate::error::{ConfigError, DurabilityReport, GssError, StoreFault};
use crate::file_store::{FileStore, TailSections};
use crate::group_commit::GroupCommitter;
use crate::hashing::{HashedNode, NodeHasher, RecoverQCache};
use crate::matrix::MemoryStore;
use crate::node_map::NodeIdMap;
use crate::pager::PAGE_BYTES;
use crate::persistence::PersistenceError;
use crate::stats::GssStats;
use crate::storage::{BucketProbe, RoomStorage, RoomStore, StorageBackend, ROOM_RECORD_BYTES};
use gss_graph::{StreamEdge, SummaryRead, SummaryStats, SummaryWrite, VertexId, Weight};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Graph Stream Sketch (GSS), the data structure proposed by the paper.
///
/// The room matrix lives behind the pluggable [`RoomStorage`] backend: dense in-memory by
/// default, or a paged sketch file ([`StorageBackend::File`]) for matrices larger than
/// RAM.  Cloning a file-backed sketch detaches the clone into memory; the file itself is
/// owned by the original and checkpointed by [`sync`](Self::sync) (also run on drop).
///
/// File-backed sketches are crash-consistent: every mutation is write-ahead logged
/// (see [`crate::wal`]) and the log drains before each insert returns, so a killed
/// process reopens its sketch file via [`open_file`](Self::open_file) with nothing
/// acknowledged lost.
#[derive(Debug, Clone)]
pub struct GssSketch {
    config: GssConfig,
    hasher: NodeHasher,
    matrix: RoomStorage,
    buffer: LeftoverBuffer,
    node_map: NodeIdMap,
    items_inserted: u64,
    /// Generation stamp of the buffer content, bumped on every buffered insert; lets
    /// [`sync`](Self::sync) skip re-encoding (and rewriting) an unchanged tail section.
    buffer_gen: u64,
    /// Generation stamp of the `⟨H(v), v⟩` table, bumped on every new registration.
    node_gen: u64,
    /// Memo for [`NodeHasher::recover_address_cached`] on the query path.
    recover_cache: RecoverQCache,
    /// Log size at which ingest checkpoints automatically (bounds WAL growth).
    wal_checkpoint_bytes: u64,
    /// Cleared by [`abandon`](Self::abandon) so drop simulates a crash.
    sync_on_drop: bool,
}

/// A candidate bucket for an edge: matrix coordinates plus the sequence indices that
/// produced them.
#[derive(Debug, Clone, Copy, Default)]
struct Candidate {
    row: usize,
    column: usize,
    source_index: u8,
    destination_index: u8,
}

/// Upper bound on probed candidates per edge (`r² ≤ 16²`); sized so the probe list lives on
/// the stack — the insert path performs no heap allocation.
const MAX_CANDIDATES: usize =
    crate::config::MAX_SEQUENCE_LENGTH * crate::config::MAX_SEQUENCE_LENGTH;

/// A batch-local cache entry: a hashed endpoint together with its precomputed address
/// sequence, so consecutive items sharing an endpoint reuse both.
#[derive(Debug, Clone, Copy)]
struct BatchEndpoint {
    node: HashedNode,
    addresses: [usize; crate::config::MAX_SEQUENCE_LENGTH],
}

impl GssSketch {
    /// Builds an in-memory sketch from a validated configuration.
    pub fn new(config: GssConfig) -> Result<Self, ConfigError> {
        Self::with_storage(config, StorageBackend::Memory)
    }

    /// Builds a sketch from a validated configuration with an explicit storage backend.
    ///
    /// [`StorageBackend::File`] creates (truncating) a paged sketch file at the given
    /// path; use [`open_file`](Self::open_file) to reopen an existing one.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the configuration is invalid or the sketch file
    /// cannot be created (the I/O failure is carried in the message).
    pub fn with_storage(config: GssConfig, storage: StorageBackend) -> Result<Self, ConfigError> {
        Self::with_storage_grouped(config, storage, GroupCommitter::new(GroupCommit::default()))
    }

    /// [`with_storage`](Self::with_storage) against a caller-supplied group-commit
    /// coordinator, so several file-backed sketches — the
    /// shards of a [`crate::ShardedGss`] — share one fsync schedule: a single cadence
    /// sync covers every log that wrote since the last one.  Ignored by the in-memory
    /// backend.
    ///
    /// # Errors
    /// As [`with_storage`](Self::with_storage).
    pub fn with_storage_grouped(
        config: GssConfig,
        storage: StorageBackend,
        group: Arc<GroupCommitter>,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let matrix = match storage {
            StorageBackend::Memory => {
                RoomStorage::Memory(MemoryStore::new(config.width, config.rooms))
            }
            StorageBackend::File { path, cache_pages } => RoomStorage::File(Box::new(
                FileStore::create_grouped(&path, &config, cache_pages, group).map_err(|error| {
                    ConfigError::new(format!(
                        "cannot create sketch file {}: {error}",
                        path.display()
                    ))
                })?,
            )),
        };
        Ok(Self::from_parts(config, matrix))
    }

    /// Assembles a sketch around an existing store (shared by construction and reopen).
    fn from_parts(config: GssConfig, matrix: RoomStorage) -> Self {
        Self {
            hasher: NodeHasher::new(&config),
            matrix,
            buffer: LeftoverBuffer::new(),
            node_map: NodeIdMap::new(),
            items_inserted: 0,
            buffer_gen: 0,
            node_gen: 0,
            recover_cache: RecoverQCache::new(),
            wal_checkpoint_bytes: crate::config::WAL_CHECKPOINT_BYTES,
            sync_on_drop: true,
            config,
        }
    }

    /// Reopens a file-backed sketch **in place**: the sketch file written by a previous
    /// file-backed run (and checkpointed by [`sync`](Self::sync) or drop) becomes this
    /// sketch's live storage with no per-room decode or insert pass — open streams the
    /// room region once to rebuild the in-memory bucket-occupancy index (sequential
    /// occupancy-flag reads), then decodes only the buffer and node table.
    ///
    /// An **unclean** file (the process died before its last checkpoint) is recovered by
    /// replaying the write-ahead log — see [`crate::wal`]; only an unclean file with no
    /// usable log is rejected.
    ///
    /// The file (and its log) must not be open in any other process: recovery mutates,
    /// so opening a *live* ingester's file would corrupt it — see the single-opener
    /// contract in [`crate::file_store`].  Use snapshots to share live state.
    ///
    /// # Errors
    /// Returns a [`PersistenceError`] if the file is missing, truncated, from a different
    /// format version, unrecoverably unclean, or structurally inconsistent.
    pub fn open_file(path: impl AsRef<Path>, cache_pages: usize) -> Result<Self, PersistenceError> {
        Self::open_file_grouped(path, cache_pages, GroupCommitter::new(GroupCommit::default()))
    }

    /// [`open_file`](Self::open_file) against a caller-supplied group-commit coordinator
    /// (see [`with_storage_grouped`](Self::with_storage_grouped)).
    ///
    /// # Errors
    /// As [`open_file`](Self::open_file).
    pub fn open_file_grouped(
        path: impl AsRef<Path>,
        cache_pages: usize,
        group: Arc<GroupCommitter>,
    ) -> Result<Self, PersistenceError> {
        let (store, header) = FileStore::open_grouped(path.as_ref(), cache_pages, group)?;
        // Decode the tail *before* assembling the sketch: if it is corrupt, returning
        // here drops only the bare store (no Drop), leaving the rejected file byte-for-
        // byte intact — a half-built sketch would checkpoint its partial state over the
        // evidence on drop.
        let mut buffer = LeftoverBuffer::new();
        let mut node_map = NodeIdMap::new();
        crate::persistence::decode_tail(&mut buffer, &mut node_map, &header.tail)?;
        let mut sketch = Self::from_parts(header.config, RoomStorage::File(Box::new(store)));
        sketch.buffer = buffer;
        sketch.node_map = node_map;
        sketch.items_inserted = header.items_inserted;
        Ok(sketch)
    }

    /// Mutable access to the buffer and node table together (used by persistence to
    /// stream tail sections into a sketch it is restoring).  Conservatively bumps both
    /// tail generations: the caller streams arbitrary content in.
    pub(crate) fn tail_parts_mut(&mut self) -> (&mut LeftoverBuffer, &mut NodeIdMap) {
        self.buffer_gen += 1;
        self.node_gen += 1;
        (&mut self.buffer, &mut self.node_map)
    }

    /// Read access to the left-over buffer (used by persistence).
    pub(crate) fn buffer(&self) -> &LeftoverBuffer {
        &self.buffer
    }

    /// Checkpoints a file-backed sketch: logs the tail image to the write-ahead log,
    /// flushes dirty pages, rewrites **only the tail sections whose generation
    /// stamp moved**, marks the file clean and truncates the log.  A fully unchanged
    /// sketch returns without touching the file; a no-op for in-memory sketches.  Runs
    /// automatically on drop (ignoring errors there — call `sync` explicitly when
    /// durability must be confirmed).
    ///
    /// # Errors
    /// Returns [`PersistenceError::Io`] if the file cannot be written.
    pub fn sync(&mut self) -> Result<(), PersistenceError> {
        if let RoomStorage::File(store) = &self.matrix {
            let (synced_buffer_gen, synced_node_gen, synced_buffer_len) = store.synced_tail_state();
            let buffer_section = (synced_buffer_gen != self.buffer_gen)
                .then(|| crate::persistence::encode_buffer_section(&self.buffer));
            // A resized buffer section shifts the node section, which must then be
            // rewritten at its new offset even when its own content is unchanged.
            let node_moved =
                buffer_section.as_ref().is_some_and(|b| b.len() as u64 != synced_buffer_len);
            let node_section = (synced_node_gen != self.node_gen || node_moved)
                .then(|| crate::persistence::encode_node_section(&self.node_map));
            store
                .checkpoint(
                    self.items_inserted,
                    TailSections {
                        buffer: buffer_section.as_deref(),
                        node: node_section.as_deref(),
                        buffer_gen: self.buffer_gen,
                        node_gen: self.node_gen,
                    },
                )
                .map_err(|error| PersistenceError::Io(error.to_string()))?;
        }
        Ok(())
    }

    /// Drops the sketch **without** checkpointing: the backing file and its write-ahead
    /// log are left exactly as a `SIGKILL` at this point would leave them.  Crash tests
    /// and the `durability_cost` recovery bench use this; for in-memory sketches it is a
    /// plain drop.
    pub fn abandon(mut self) {
        self.sync_on_drop = false;
    }

    /// Which storage backend the matrix uses (`"memory"` or `"file"`).
    pub fn storage_backend(&self) -> &'static str {
        self.matrix.backend_name()
    }

    /// The room storage behind this sketch — white-box access for benches and equivalence
    /// tests (naive reference scans, page-cache statistics via
    /// [`RoomStorage::as_file`]).
    pub fn room_storage(&self) -> &RoomStorage {
        &self.matrix
    }

    /// Builds a sketch with the paper's default parameters at the given matrix width.
    pub fn with_width(width: usize) -> Self {
        Self::new(GssConfig::paper_default(width)).expect("paper defaults are valid")
    }

    /// The configuration this sketch was built with.
    pub fn config(&self) -> &GssConfig {
        &self.config
    }

    /// The node hasher (exposed for analysis and white-box tests).
    pub fn hasher(&self) -> &NodeHasher {
        &self.hasher
    }

    /// Number of stream items inserted so far.
    pub fn items_inserted(&self) -> u64 {
        self.items_inserted
    }

    /// Number of distinct sketch edges currently stored (matrix + buffer).
    pub fn stored_edges(&self) -> usize {
        self.matrix.occupied_rooms() + self.buffer.len()
    }

    /// Number of sketch edges that had to be stored in the left-over buffer.
    pub fn buffered_edges(&self) -> usize {
        self.buffer.len()
    }

    /// Buffer percentage as defined in Section VII-B: buffered edges divided by the total
    /// number of distinct edges stored.
    pub fn buffer_percentage(&self) -> f64 {
        let total = self.stored_edges();
        if total == 0 {
            0.0
        } else {
            self.buffer.len() as f64 / total as f64
        }
    }

    /// Detailed structural statistics.
    pub fn detailed_stats(&self) -> GssStats {
        let durability = self.matrix.as_file().map(FileStore::durability_stats).unwrap_or_default();
        let pages = self.matrix.as_file().map(FileStore::page_stats).unwrap_or_default();
        GssStats {
            wal_bytes: durability.wal_bytes,
            wal_flushes: durability.wal_flushes,
            wal_group_commits: durability.wal_group_commits,
            wal_group_waits: durability.wal_group_waits,
            fsyncs: durability.wal_fsyncs,
            pages_flushed: durability.pages_written,
            checkpoints: durability.checkpoints,
            page_lookups: pages.lookups,
            page_faults: pages.faults,
            page_latch_waits: pages.latch_waits,
            io_retries: durability.io_retries,
            injected_faults: durability.injected_faults,
            store_poisoned: durability.store_poisoned,
            width: self.config.width,
            rooms_per_bucket: self.config.rooms,
            fingerprint_bits: self.config.fingerprint_bits,
            items_inserted: self.items_inserted,
            matrix_edges: self.matrix.occupied_rooms(),
            buffered_edges: self.buffer.len(),
            buffer_percentage: self.buffer_percentage(),
            matrix_load_factor: self.matrix.load_factor(),
            matrix_bytes: self.config.matrix_bytes(),
            occupancy_index_bytes: self.config.occupancy_index_bytes(),
            buffer_bytes: self.buffer.bytes(),
            node_map_bytes: self.node_map.bytes(),
            distinct_hashed_nodes: self.node_map.len(),
            colliding_hashes: self.node_map.colliding_hashes(),
        }
    }

    /// Memory footprint in bytes under the paper's storage layout (matrix + buffer,
    /// excluding the optional node-id table).  This is the quantity the equal-memory
    /// comparisons of Section VII are based on.
    pub fn memory_bytes(&self) -> usize {
        self.config.matrix_bytes() + self.buffer.bytes()
    }

    /// Fills `out` with the candidate buckets probed for an edge, in probe order, and
    /// returns how many were produced.  Allocation-free: everything lives on the stack.
    fn collect_candidates(
        &self,
        source: HashedNode,
        destination: HashedNode,
        out: &mut [Candidate; MAX_CANDIDATES],
    ) -> usize {
        let mut source_addresses = [0usize; crate::config::MAX_SEQUENCE_LENGTH];
        let mut destination_addresses = [0usize; crate::config::MAX_SEQUENCE_LENGTH];
        if self.config.square_hashing {
            self.hasher.address_sequence_into(source, &mut source_addresses);
            self.hasher.address_sequence_into(destination, &mut destination_addresses);
        }
        self.collect_candidates_from(
            source,
            destination,
            &source_addresses,
            &destination_addresses,
            out,
        )
    }

    /// [`collect_candidates`](Self::collect_candidates) over *precomputed* address
    /// sequences, so the batched insert path computes each endpoint's sequence once per
    /// batch instead of once per item.
    fn collect_candidates_from(
        &self,
        source: HashedNode,
        destination: HashedNode,
        source_addresses: &[usize; crate::config::MAX_SEQUENCE_LENGTH],
        destination_addresses: &[usize; crate::config::MAX_SEQUENCE_LENGTH],
        out: &mut [Candidate; MAX_CANDIDATES],
    ) -> usize {
        if !self.config.square_hashing {
            out[0] = Candidate {
                row: source.address,
                column: destination.address,
                source_index: 0,
                destination_index: 0,
            };
            return 1;
        }
        let r = self.config.sequence_length;
        if self.config.sampling {
            let mut pairs = [(0usize, 0usize); crate::config::MAX_SEQUENCE_LENGTH];
            let count = self.hasher.candidate_pairs_into(
                source.fingerprint,
                destination.fingerprint,
                self.config.candidates.min(pairs.len()),
                &mut pairs,
            );
            for (slot, &(i, j)) in out.iter_mut().zip(pairs.iter().take(count)) {
                *slot = Candidate {
                    row: source_addresses[i],
                    column: destination_addresses[j],
                    source_index: i as u8,
                    destination_index: j as u8,
                };
            }
            count
        } else {
            // Probe the full r × r square in row-major order, as in Section V-A.
            let mut count = 0;
            for (i, &row) in source_addresses.iter().take(r).enumerate() {
                for (j, &column) in destination_addresses.iter().take(r).enumerate() {
                    out[count] = Candidate {
                        row,
                        column,
                        source_index: i as u8,
                        destination_index: j as u8,
                    };
                    count += 1;
                }
            }
            count
        }
    }

    /// Recovers a neighbour hash from a room found during a successor scan, memoising
    /// the LCG replay per `(fingerprint, index)` (hub scans hit many matching rooms).
    fn recover_destination_hash(&self, column: usize, fingerprint: u16, index: u8) -> u64 {
        if self.config.square_hashing {
            self.hasher.recover_hash_cached(
                column,
                fingerprint,
                index as usize,
                &self.recover_cache,
            )
        } else {
            self.hasher.compose(column, fingerprint)
        }
    }

    /// Recovers a neighbour hash from a room found during a precursor scan.
    fn recover_source_hash(&self, row: usize, fingerprint: u16, index: u8) -> u64 {
        if self.config.square_hashing {
            self.hasher.recover_hash_cached(row, fingerprint, index as usize, &self.recover_cache)
        } else {
            self.hasher.compose(row, fingerprint)
        }
    }

    /// The rows scanned by a successor query (columns for a precursor query): the node's
    /// address sequence under square hashing, or its single address in the basic version.
    /// Allocation-free: fills the stack array `out` and returns the count, like
    /// [`collect_candidates`](Self::collect_candidates) on the insert path.
    fn scan_addresses_into(
        &self,
        node: HashedNode,
        out: &mut [usize; crate::config::MAX_SEQUENCE_LENGTH],
    ) -> usize {
        if self.config.square_hashing {
            self.hasher.address_sequence_into(node, out)
        } else {
            out[0] = node.address;
            1
        }
    }

    /// Translates a set of sketch-node hashes to original vertex ids via the reverse table.
    /// Without id tracking the raw hashes are returned (documented fallback).
    fn hashes_to_vertices(&self, hashes: impl IntoIterator<Item = u64>) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = if self.config.track_node_ids {
            hashes.into_iter().flat_map(|h| self.node_map.vertices_for(h).iter().copied()).collect()
        } else {
            hashes.into_iter().collect()
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Visits every occupied matrix room as `(row, column, room)` (used by merging and
    /// persistence; a callback rather than an iterator so the file backend can stream
    /// rooms through its page cache without materialising them).
    pub(crate) fn for_each_matrix_room(
        &self,
        visit: &mut dyn FnMut(usize, usize, crate::matrix::Room),
    ) {
        self.matrix.scan_occupied(visit);
    }

    /// Number of occupied matrix rooms (used by persistence to write the room count).
    pub(crate) fn matrix_edge_count(&self) -> usize {
        self.matrix.occupied_rooms()
    }

    /// Iterates over buffered edges as `(source hash, destination hash, weight)` triples.
    pub(crate) fn buffered_edge_triples(&self) -> impl Iterator<Item = (u64, u64, Weight)> + '_ {
        self.buffer.edges()
    }

    /// Inserts an edge whose endpoints are already in the hashed space (used by merging);
    /// does not touch the node-id table.
    pub(crate) fn insert_hashed(
        &mut self,
        source_hash: u64,
        destination_hash: u64,
        weight: Weight,
    ) {
        let source_node = self.hasher.split(source_hash);
        let destination_node = self.hasher.split(destination_hash);
        self.insert_nodes(source_node, destination_node, weight);
    }

    /// Registers a `⟨H(v), v⟩` pair, bumping the node-section generation and write-ahead
    /// logging the registration when it is new — the single mutation point of the table.
    fn register_node(&mut self, hash: u64, vertex: VertexId) {
        self.try_register_node(hash, vertex)
            .unwrap_or_else(|fault| panic!("node registration failed: {fault}"));
    }

    /// Fallible [`register_node`](Self::register_node): the typed fail-stop path.
    fn try_register_node(&mut self, hash: u64, vertex: VertexId) -> Result<(), StoreFault> {
        if self.node_map.register(hash, vertex) {
            self.node_gen += 1;
            if let RoomStorage::File(store) = &self.matrix {
                store.try_log_node(hash, vertex)?;
            }
        }
        Ok(())
    }

    /// Marks the completion of an insert/batch in the write-ahead log (the log drains
    /// before this returns), and checkpoints the
    /// sketch automatically once the log outgrows
    /// [`wal_checkpoint_bytes`](Self::set_wal_checkpoint_bytes) — long runs that never
    /// call [`sync`](Self::sync) still keep bounded sidecar-log size and bounded
    /// crash-recovery replay time.
    fn commit_wal(&mut self) {
        if let Some(ack) = self.commit_wal_deferred() {
            self.ack_wal(ack);
        }
    }

    /// Fallible [`commit_wal`](Self::commit_wal): the typed fail-stop path.
    fn try_commit_wal(&mut self) -> Result<(), StoreFault> {
        if let Some(ack) = self.try_commit_wal_deferred()? {
            self.try_ack_wal(ack)?;
        }
        Ok(())
    }

    /// The append half of [`commit_wal`](Self::commit_wal) for the sharded two-phase
    /// batch path: logs the commit frame and returns the token the caller must pass to
    /// [`ack_wal`](Self::ack_wal) once every shard of the batch has appended.  Returns
    /// `None` for in-memory sketches, and when the log outgrew its checkpoint bound —
    /// the automatic checkpoint runs inline (it needs the exclusive sketch lock still
    /// held here) and leaves the log durable past the token's target anyway.
    pub(crate) fn commit_wal_deferred(&mut self) -> Option<crate::file_store::WalAck> {
        self.try_commit_wal_deferred()
            .unwrap_or_else(|fault| panic!("write-ahead-log commit failed: {fault}"))
    }

    /// Fallible [`commit_wal_deferred`](Self::commit_wal_deferred): on a poisoned or
    /// newly failing store the sticky [`StoreFault`] comes back instead of a panic —
    /// including when the inline automatic checkpoint fails (the checkpoint poisons the
    /// store, so the fault it latched is returned).
    pub(crate) fn try_commit_wal_deferred(
        &mut self,
    ) -> Result<Option<crate::file_store::WalAck>, StoreFault> {
        let (wal_bytes, ack) = match &self.matrix {
            RoomStorage::File(store) => store.try_log_commit_deferred(self.items_inserted)?,
            RoomStorage::Memory(_) => return Ok(None),
        };
        if wal_bytes >= self.wal_checkpoint_bytes {
            self.try_ack_wal(ack)?;
            // This is an insert/batch boundary, so the sketch state is consistent.
            if let Err(error) = self.sync() {
                // The failed checkpoint poisoned the store; report its latched cause.
                let fault = match &self.matrix {
                    RoomStorage::File(store) => store.health().cause(),
                    RoomStorage::Memory(_) => None,
                };
                return Err(fault.unwrap_or_else(|| {
                    StoreFault::new(
                        std::io::ErrorKind::Other,
                        format!("automatic write-ahead-log checkpoint failed: {error}"),
                    )
                }));
            }
            return Ok(None);
        }
        Ok(Some(ack))
    }

    /// The acknowledgement half of [`commit_wal_deferred`](Self::commit_wal_deferred):
    /// drains the log through a deferred commit.  Takes `&self`, so the
    /// acknowledgement pass can run under a shared sketch lock.
    pub(crate) fn ack_wal(&self, ack: crate::file_store::WalAck) {
        if let RoomStorage::File(store) = &self.matrix {
            store.ack_commit(ack);
        }
    }

    /// Fallible [`ack_wal`](Self::ack_wal): the typed fail-stop path.
    pub(crate) fn try_ack_wal(&self, ack: crate::file_store::WalAck) -> Result<(), StoreFault> {
        match &self.matrix {
            RoomStorage::File(store) => store.try_ack_commit(ack),
            RoomStorage::Memory(_) => Ok(()),
        }
    }

    /// A lock-free acknowledger for this sketch's deferred commits (`None` for in-memory
    /// sketches) — see [`WalAckHandle`](crate::file_store::WalAckHandle).
    pub(crate) fn wal_ack_handle(&self) -> Option<crate::file_store::WalAckHandle> {
        match &self.matrix {
            RoomStorage::File(store) => Some(store.ack_handle()),
            RoomStorage::Memory(_) => None,
        }
    }

    /// Overrides the write-ahead-log size at which the sketch checkpoints itself during
    /// ingest (default [`crate::config::WAL_CHECKPOINT_BYTES`]; clamped to at least 1).
    pub fn set_wal_checkpoint_bytes(&mut self, bytes: u64) {
        self.wal_checkpoint_bytes = bytes.max(1);
    }

    /// Copies every `⟨H(v), v⟩` registration of `other` into this sketch's id table.
    pub(crate) fn absorb_node_map(&mut self, other: &GssSketch) {
        for (hash, vertices) in other.node_map.iter() {
            for &vertex in vertices {
                self.register_node(hash, vertex);
            }
        }
    }

    /// Read access to the `⟨H(v), v⟩` table (used by persistence).
    pub(crate) fn node_map(&self) -> &NodeIdMap {
        &self.node_map
    }

    /// Restores one matrix room exactly as it was encoded (used by persistence; the target
    /// room must be empty).
    pub(crate) fn restore_room(
        &mut self,
        row: usize,
        column: usize,
        slot: usize,
        room: crate::matrix::Room,
    ) {
        self.matrix.store_room(row, column, slot, room);
    }

    /// Overrides the inserted-items counter (used by persistence).
    pub(crate) fn set_items_inserted(&mut self, items: u64) {
        self.items_inserted = items;
        self.commit_wal();
    }

    /// Shared insert path over hashed endpoints: probe the candidate buckets in order and
    /// stop at the first one that already holds this edge or has a free room; spill to the
    /// buffer when all candidates are full (Section V, edge updating).  Because rooms are
    /// never freed, stopping at the first free room can never split an edge across two
    /// rooms, so Theorem 1 (exact storage of `G_h`) is preserved.
    fn insert_nodes(
        &mut self,
        source_node: HashedNode,
        destination_node: HashedNode,
        weight: Weight,
    ) {
        self.try_insert_nodes(source_node, destination_node, weight)
            .unwrap_or_else(|fault| panic!("sketch write failed: {fault}"));
    }

    /// Fallible [`insert_nodes`](Self::insert_nodes): the typed fail-stop path.
    fn try_insert_nodes(
        &mut self,
        source_node: HashedNode,
        destination_node: HashedNode,
        weight: Weight,
    ) -> Result<(), StoreFault> {
        let mut candidates = [Candidate::default(); MAX_CANDIDATES];
        let count = self.collect_candidates(source_node, destination_node, &mut candidates);
        self.try_place_edge(source_node, destination_node, &candidates[..count], weight)
    }

    /// Walks `candidates` in probe order and places the edge: add to a matching room, claim
    /// the first free room, or spill to the buffer.  Each bucket is probed in **one pass**
    /// ([`RoomStore::probe_bucket`]) that answers match/first-empty/full together,
    /// replacing the former `find_match`-then-`find_empty` double scan — half the bucket
    /// reads per candidate, and half the page-cache lookups on the file backend.
    fn try_place_edge(
        &mut self,
        source_node: HashedNode,
        destination_node: HashedNode,
        candidates: &[Candidate],
        weight: Weight,
    ) -> Result<(), StoreFault> {
        for candidate in candidates {
            match self.matrix.try_probe_bucket(
                candidate.row,
                candidate.column,
                source_node.fingerprint,
                destination_node.fingerprint,
                candidate.source_index,
                candidate.destination_index,
            )? {
                BucketProbe::Match(slot) => {
                    return self.matrix.try_add_weight(
                        candidate.row,
                        candidate.column,
                        slot,
                        weight,
                    );
                }
                BucketProbe::Empty(slot) => {
                    return self.matrix.try_store_room(
                        candidate.row,
                        candidate.column,
                        slot,
                        crate::matrix::Room {
                            source_fingerprint: source_node.fingerprint,
                            destination_fingerprint: destination_node.fingerprint,
                            source_index: candidate.source_index,
                            destination_index: candidate.destination_index,
                            weight,
                            occupied: true,
                        },
                    );
                }
                BucketProbe::Full => {}
            }
        }
        self.buffer.insert(source_node.hash, destination_node.hash, weight);
        self.buffer_gen += 1;
        if let RoomStorage::File(store) = &self.matrix {
            store.try_log_buffer_insert(source_node.hash, destination_node.hash, weight)?;
        }
        Ok(())
    }

    /// Hashes `vertex` once per batch: returns the index of its cache entry, creating it
    /// (and registering the `⟨H(v), v⟩` pair) on first sight.
    fn try_batch_endpoint(
        &mut self,
        vertex: VertexId,
        index: &mut HashMap<VertexId, u32>,
        cached: &mut Vec<BatchEndpoint>,
    ) -> Result<u32, StoreFault> {
        if let Some(&slot) = index.get(&vertex) {
            return Ok(slot);
        }
        let node = self.hasher.hashed_node(vertex);
        if self.config.track_node_ids {
            self.try_register_node(node.hash, vertex)?;
        }
        let mut addresses = [0usize; crate::config::MAX_SEQUENCE_LENGTH];
        if self.config.square_hashing {
            self.hasher.address_sequence_into(node, &mut addresses);
        }
        let slot = cached.len() as u32;
        cached.push(BatchEndpoint { node, addresses });
        index.insert(vertex, slot);
        Ok(slot)
    }

    /// 1-hop successor query in the *hashed* space: the sketch-node hashes reported as
    /// out-neighbours of `H(v)`.  Exposed for analysis; most callers want
    /// [`successors`](SummaryRead::successors).
    pub fn successor_hashes(&self, vertex: VertexId) -> Vec<u64> {
        let node = self.hasher.hashed_node(vertex);
        let mut result: Vec<u64> = Vec::new();
        let mut addresses = [0usize; crate::config::MAX_SEQUENCE_LENGTH];
        let count = self.scan_addresses_into(node, &mut addresses);
        for (index, &row) in addresses[..count].iter().enumerate() {
            self.matrix.scan_row(row, &mut |column, room| {
                if room.source_fingerprint == node.fingerprint
                    && room.source_index as usize == index
                {
                    result.push(self.recover_destination_hash(
                        column,
                        room.destination_fingerprint,
                        room.destination_index,
                    ));
                }
            });
        }
        result.extend(self.buffer.successors(node.hash));
        result.sort_unstable();
        result.dedup();
        result
    }

    /// 1-hop precursor query in the hashed space.
    pub fn precursor_hashes(&self, vertex: VertexId) -> Vec<u64> {
        let node = self.hasher.hashed_node(vertex);
        let mut result: Vec<u64> = Vec::new();
        let mut addresses = [0usize; crate::config::MAX_SEQUENCE_LENGTH];
        let count = self.scan_addresses_into(node, &mut addresses);
        self.matrix.scan_columns(&addresses[..count], &mut |index, row, room| {
            if room.destination_fingerprint == node.fingerprint
                && room.destination_index as usize == index
            {
                result.push(self.recover_source_hash(
                    row,
                    room.source_fingerprint,
                    room.source_index,
                ));
            }
        });
        result.extend(self.buffer.precursors(node.hash));
        result.sort_unstable();
        result.dedup();
        result
    }
}

/// File-backed sketches checkpoint themselves when dropped, so "build, fill, drop,
/// reopen" works without an explicit [`GssSketch::sync`].  Failures are ignored here
/// (drop cannot report them); sync explicitly when durability must be confirmed.
/// [`GssSketch::abandon`] suppresses the checkpoint to simulate a crash.
impl Drop for GssSketch {
    fn drop(&mut self) {
        if self.sync_on_drop {
            let _ = self.sync();
        }
    }
}

/// The staged halves of the write path: every mutation except the commit frame.  The
/// [`SummaryWrite`] impl stages and commits in one call; the sharded two-phase batch
/// path stages every shard first and acknowledges second (see
/// `commit_wal_deferred`).
impl GssSketch {
    /// [`SummaryWrite::insert`] without the commit frame.
    fn insert_staged(&mut self, source: VertexId, destination: VertexId, weight: Weight) {
        self.try_insert_staged(source, destination, weight)
            .unwrap_or_else(|fault| panic!("sketch write failed: {fault}"));
    }

    /// Fallible [`insert_staged`](Self::insert_staged): the typed fail-stop path.
    fn try_insert_staged(
        &mut self,
        source: VertexId,
        destination: VertexId,
        weight: Weight,
    ) -> Result<(), StoreFault> {
        self.items_inserted += 1;
        let source_node = self.hasher.hashed_node(source);
        let destination_node = self.hasher.hashed_node(destination);
        if self.config.track_node_ids {
            self.try_register_node(source_node.hash, source)?;
            self.try_register_node(destination_node.hash, destination)?;
        }
        self.try_insert_nodes(source_node, destination_node, weight)
    }

    /// Batched edge updating, observationally identical to per-item [`insert`] but with the
    /// per-item work amortised across the batch:
    ///
    /// * every distinct endpoint is hashed (and its `⟨H(v), v⟩` pair registered) once;
    /// * each endpoint's square-hashing address sequence is computed once and reused by
    ///   every item sharing that endpoint;
    /// * duplicate `(source, destination)` keys are folded into a single accumulated weight
    ///   before the candidate buckets are probed.  Folding preserves first-occurrence order
    ///   of the distinct keys, and since a room is claimed at an edge's *first* insertion
    ///   and later items only add weight, the resulting matrix/buffer state is exactly the
    ///   state the per-item path produces.
    ///
    /// [`insert`]: SummaryWrite::insert
    /// [`SummaryWrite::insert_batch`] without the commit frame; returns whether a commit
    /// is owed (`false` only for an empty batch, which mutates nothing).
    fn insert_batch_staged(&mut self, items: &[StreamEdge]) -> bool {
        self.try_insert_batch_staged(items)
            .unwrap_or_else(|fault| panic!("sketch write failed: {fault}"))
    }

    /// Fallible [`insert_batch_staged`](Self::insert_batch_staged): on a fault the store
    /// is already poisoned and the batch may be partially applied — the caller must not
    /// acknowledge it.
    fn try_insert_batch_staged(&mut self, items: &[StreamEdge]) -> Result<bool, StoreFault> {
        if items.len() < 2 {
            match items.first() {
                Some(item) => {
                    self.try_insert_staged(item.source, item.destination, item.weight)?;
                }
                None => return Ok(false),
            }
            return Ok(true);
        }
        self.items_inserted += items.len() as u64;
        let mut endpoint_index: HashMap<VertexId, u32> =
            HashMap::with_capacity(items.len().min(4096));
        let mut endpoints: Vec<BatchEndpoint> = Vec::new();
        // Folded distinct edges in first-occurrence order: (source slot, destination slot,
        // accumulated weight).
        let mut folded: Vec<(u32, u32, Weight)> = Vec::with_capacity(items.len());
        let mut edge_index: HashMap<(VertexId, VertexId), u32> =
            HashMap::with_capacity(items.len().min(4096));
        for item in items {
            let source =
                self.try_batch_endpoint(item.source, &mut endpoint_index, &mut endpoints)?;
            let destination =
                self.try_batch_endpoint(item.destination, &mut endpoint_index, &mut endpoints)?;
            match edge_index.entry((item.source, item.destination)) {
                std::collections::hash_map::Entry::Occupied(slot) => {
                    folded[*slot.get() as usize].2 += item.weight;
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(folded.len() as u32);
                    folded.push((source, destination, item.weight));
                }
            }
        }
        let mut candidates = [Candidate::default(); MAX_CANDIDATES];
        // Batch locality: the file backend visits the folded edges in page order of each
        // edge's *first* candidate room, so consecutive room writes land on the same
        // cache page and ride the pinned write cursor instead of re-probing the stripe
        // map.  The stable sort keeps first-occurrence order within a page, and
        // re-ordering across pages is observationally neutral: wherever an edge is
        // placed relative to the others, it ends up in a room of its own candidate set
        // or in the exact buffer, and every query answers from either location
        // identically.  The in-memory backend keeps first-occurrence order outright.
        let mut order: Vec<u32> = (0..folded.len() as u32).collect();
        if self.matrix.as_file().is_some() {
            let rooms = self.config.rooms;
            let width = self.config.width;
            let keys: Vec<u64> = folded
                .iter()
                .map(|&(source, destination, _)| {
                    let source = endpoints[source as usize];
                    let destination = endpoints[destination as usize];
                    let count = self.collect_candidates_from(
                        source.node,
                        destination.node,
                        &source.addresses,
                        &destination.addresses,
                        &mut candidates,
                    );
                    if count == 0 {
                        return u64::MAX;
                    }
                    let first = candidates[0];
                    let byte = (first.row * width + first.column) * rooms * ROOM_RECORD_BYTES;
                    (byte / PAGE_BYTES) as u64
                })
                .collect();
            order.sort_by_key(|&index| keys[index as usize]);
        }
        for &index in &order {
            let (source, destination, weight) = folded[index as usize];
            let source = endpoints[source as usize];
            let destination = endpoints[destination as usize];
            let count = self.collect_candidates_from(
                source.node,
                destination.node,
                &source.addresses,
                &destination.addresses,
                &mut candidates,
            );
            self.try_place_edge(source.node, destination.node, &candidates[..count], weight)?;
        }
        Ok(true)
    }

    /// [`SummaryWrite::insert_batch`] with the commit deferred: stages the batch, appends
    /// the commit frame, and returns the acknowledgement token for
    /// [`ack_wal`](Self::ack_wal) — `None` when nothing is owed (empty batch, in-memory
    /// sketch, or an inline automatic checkpoint already made the commit durable).
    pub(crate) fn insert_batch_deferred(
        &mut self,
        items: &[StreamEdge],
    ) -> Option<crate::file_store::WalAck> {
        if self.insert_batch_staged(items) {
            self.commit_wal_deferred()
        } else {
            None
        }
    }

    /// Fallible [`insert_batch_deferred`](Self::insert_batch_deferred): the typed
    /// fail-stop path of the sharded two-phase commit.
    pub(crate) fn try_insert_batch_deferred(
        &mut self,
        items: &[StreamEdge],
    ) -> Result<Option<crate::file_store::WalAck>, StoreFault> {
        if self.try_insert_batch_staged(items)? {
            self.try_commit_wal_deferred()
        } else {
            Ok(None)
        }
    }

    /// [`insert`](SummaryWrite::insert) with typed fail-stop errors instead of the
    /// infallible trait's storage-contract panics: on a poisoned store (or the write
    /// that first poisons it) the sticky [`GssError::StoreFailed`] comes back, reads
    /// keep working, and [`durability_report`](Self::durability_report) quantifies any
    /// acknowledged-but-possibly-lost items.  In-memory sketches never fail.
    pub fn try_insert(
        &mut self,
        source: VertexId,
        destination: VertexId,
        weight: Weight,
    ) -> Result<(), GssError> {
        self.try_insert_staged(source, destination, weight)?;
        self.try_commit_wal()?;
        Ok(())
    }

    /// [`insert_batch`](SummaryWrite::insert_batch) with typed fail-stop errors (see
    /// [`try_insert`](Self::try_insert)).  On an error the batch may be partially
    /// applied and is **not** acknowledged; the store rejects all further writes with
    /// the same sticky cause.
    pub fn try_insert_batch(&mut self, items: &[StreamEdge]) -> Result<(), GssError> {
        if self.try_insert_batch_staged(items)? {
            self.try_commit_wal()?;
        }
        Ok(())
    }

    /// Whether the backing store has fail-stopped (always `false` for in-memory
    /// sketches).
    pub fn is_poisoned(&self) -> bool {
        self.matrix.as_file().is_some_and(|store| store.health().is_poisoned())
    }

    /// The honest durability account of a file-backed sketch (all-zero for in-memory
    /// sketches): acknowledged items, items covered by a durable log image, and — after
    /// a fault — the acknowledged-but-possibly-lost difference.
    pub fn durability_report(&self) -> DurabilityReport {
        self.matrix.as_file().map(FileStore::durability_report).unwrap_or_default()
    }
}

impl SummaryWrite for GssSketch {
    fn insert(&mut self, source: VertexId, destination: VertexId, weight: Weight) {
        self.insert_staged(source, destination, weight);
        self.commit_wal();
    }

    fn insert_batch(&mut self, items: &[StreamEdge]) {
        if self.insert_batch_staged(items) {
            self.commit_wal();
        }
    }

    /// Streams through [`insert_batch`](SummaryWrite::insert_batch) in fixed-size chunks so
    /// unbounded iterators still benefit from batched hashing without unbounded buffering.
    fn insert_stream(&mut self, items: &mut dyn Iterator<Item = StreamEdge>) {
        const CHUNK: usize = 1024;
        let mut buffer: Vec<StreamEdge> = Vec::with_capacity(CHUNK);
        loop {
            buffer.clear();
            while buffer.len() < CHUNK {
                match items.next() {
                    Some(item) => buffer.push(item),
                    None => break,
                }
            }
            if buffer.is_empty() {
                return;
            }
            self.insert_batch(&buffer);
            if buffer.len() < CHUNK {
                return;
            }
        }
    }
}

impl SummaryRead for GssSketch {
    fn edge_weight(&self, source: VertexId, destination: VertexId) -> Option<Weight> {
        let source_node = self.hasher.hashed_node(source);
        let destination_node = self.hasher.hashed_node(destination);
        let mut candidates = [Candidate::default(); MAX_CANDIDATES];
        let count = self.collect_candidates(source_node, destination_node, &mut candidates);
        for candidate in candidates.iter().copied().take(count) {
            if let Some(slot) = self.matrix.find_match(
                candidate.row,
                candidate.column,
                source_node.fingerprint,
                destination_node.fingerprint,
                candidate.source_index,
                candidate.destination_index,
            ) {
                return Some(self.matrix.room(candidate.row, candidate.column, slot).weight);
            }
        }
        self.buffer.edge_weight(source_node.hash, destination_node.hash)
    }

    fn successors(&self, vertex: VertexId) -> Vec<VertexId> {
        self.hashes_to_vertices(self.successor_hashes(vertex))
    }

    fn precursors(&self, vertex: VertexId) -> Vec<VertexId> {
        self.hashes_to_vertices(self.precursor_hashes(vertex))
    }

    fn stats(&self) -> SummaryStats {
        SummaryStats {
            bytes: self.memory_bytes(),
            items_inserted: self.items_inserted,
            slots: self.matrix.room_count(),
            occupied_slots: self.matrix.occupied_rooms(),
            buffered_edges: self.buffer.len(),
        }
    }

    fn name(&self) -> String {
        format!(
            "GSS(fsize={},w={},l={},r={},k={}{}{})",
            self.config.fingerprint_bits,
            self.config.width,
            self.config.rooms,
            self.config.sequence_length,
            self.config.candidates,
            if self.config.square_hashing { "" } else { ",basic" },
            if self.config.sampling { "" } else { ",no-sampling" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_graph::AdjacencyListGraph;

    fn paper_figure_one_items() -> Vec<(u64, u64, i64)> {
        vec![
            (1, 2, 1),
            (1, 3, 1),
            (2, 4, 1),
            (1, 3, 1),
            (1, 6, 1),
            (3, 6, 1),
            (1, 5, 1),
            (1, 3, 3),
            (3, 6, 1),
            (4, 1, 1),
            (4, 6, 1),
            (6, 5, 3),
            (1, 7, 1),
            (5, 2, 2),
            (4, 1, 1),
        ]
    }

    fn build_pair(config: GssConfig) -> (GssSketch, AdjacencyListGraph) {
        let mut sketch = GssSketch::new(config).unwrap();
        let mut exact = AdjacencyListGraph::new();
        for (s, d, w) in paper_figure_one_items() {
            sketch.insert(s, d, w);
            exact.insert(s, d, w);
        }
        (sketch, exact)
    }

    #[test]
    fn edge_queries_match_exact_graph_when_width_is_ample() {
        let (sketch, exact) = build_pair(GssConfig::paper_default(64));
        for (key, weight) in exact.edges() {
            assert_eq!(
                sketch.edge_weight(key.source, key.destination),
                Some(weight),
                "edge {key:?}"
            );
        }
        // Absent edges are reported absent (no collisions at this tiny scale).
        assert_eq!(sketch.edge_weight(2, 1), None);
        assert_eq!(sketch.edge_weight(7, 4), None);
    }

    #[test]
    fn successor_and_precursor_queries_match_exact_graph() {
        let (sketch, exact) = build_pair(GssConfig::paper_default(64));
        for v in exact.vertices() {
            assert_eq!(sketch.successors(v), exact.successors(v), "successors of {v}");
            assert_eq!(sketch.precursors(v), exact.precursors(v), "precursors of {v}");
        }
    }

    #[test]
    fn basic_version_answers_the_same_queries() {
        let (sketch, exact) = build_pair(GssConfig::basic(64));
        for (key, weight) in exact.edges() {
            assert_eq!(sketch.edge_weight(key.source, key.destination), Some(weight));
        }
        for v in exact.vertices() {
            assert_eq!(sketch.successors(v), exact.successors(v));
            assert_eq!(sketch.precursors(v), exact.precursors(v));
        }
    }

    #[test]
    fn no_sampling_configuration_works() {
        let config = GssConfig::paper_small(64).with_sampling(false);
        let (sketch, exact) = build_pair(config);
        for (key, weight) in exact.edges() {
            assert_eq!(sketch.edge_weight(key.source, key.destination), Some(weight));
        }
    }

    #[test]
    fn duplicate_items_accumulate_instead_of_duplicating() {
        let mut sketch = GssSketch::with_width(32);
        for _ in 0..10 {
            sketch.insert(5, 9, 2);
        }
        assert_eq!(sketch.edge_weight(5, 9), Some(20));
        assert_eq!(sketch.stored_edges(), 1);
    }

    #[test]
    fn deletions_subtract_weight() {
        let mut sketch = GssSketch::with_width(32);
        sketch.insert(1, 2, 10);
        sketch.insert(1, 2, -4);
        assert_eq!(sketch.edge_weight(1, 2), Some(6));
    }

    #[test]
    fn tiny_matrix_overflows_into_buffer_but_stays_accurate() {
        // A 2x2 matrix with 1 room cannot hold the 11 distinct edges: most must be buffered,
        // yet every query stays exact because the buffer is exact and fingerprints
        // disambiguate the matrix rooms.
        let config = GssConfig {
            width: 2,
            rooms: 1,
            sequence_length: 2,
            candidates: 2,
            ..GssConfig::paper_default(2)
        };
        let (sketch, exact) = build_pair(config);
        assert!(sketch.buffered_edges() > 0);
        assert!(sketch.buffer_percentage() > 0.0);
        for (key, weight) in exact.edges() {
            assert_eq!(sketch.edge_weight(key.source, key.destination), Some(weight));
        }
        for v in exact.vertices() {
            let reported = sketch.successors(v);
            for truth in exact.successors(v) {
                assert!(reported.contains(&truth), "successor {truth} of {v} missing");
            }
        }
    }

    #[test]
    fn square_hashing_reduces_buffered_edges_under_pressure() {
        // Insert many edges sharing one source (a high-degree hub) into a small matrix:
        // without square hashing they all compete for one row and overflow; with square
        // hashing they spread over r rows.
        let hub_edges: Vec<(u64, u64, i64)> = (0..200u64).map(|d| (9999, d, 1)).collect();
        let mut basic = GssSketch::new(GssConfig::basic(32)).unwrap();
        let mut square =
            GssSketch::new(GssConfig { rooms: 1, ..GssConfig::paper_default(32) }).unwrap();
        for &(s, d, w) in &hub_edges {
            basic.insert(s, d, w);
            square.insert(s, d, w);
        }
        assert!(
            square.buffered_edges() < basic.buffered_edges(),
            "square hashing should buffer fewer edges ({} vs {})",
            square.buffered_edges(),
            basic.buffered_edges()
        );
    }

    #[test]
    fn stats_track_structure_sizes() {
        let (sketch, _) = build_pair(GssConfig::paper_default(64));
        let stats = sketch.stats();
        assert_eq!(stats.items_inserted, 15);
        assert_eq!(stats.occupied_slots, 11);
        assert_eq!(stats.slots, 64 * 64 * 2);
        let detailed = sketch.detailed_stats();
        assert_eq!(detailed.matrix_edges, 11);
        assert_eq!(detailed.buffered_edges, 0);
        assert_eq!(detailed.buffer_percentage, 0.0);
        assert_eq!(detailed.distinct_hashed_nodes, 7);
        assert!(detailed.matrix_bytes > 0);
        assert!(sketch.memory_bytes() >= detailed.matrix_bytes);
    }

    #[test]
    fn name_reflects_configuration() {
        let sketch = GssSketch::with_width(100);
        assert!(sketch.name().contains("fsize=16"));
        assert!(sketch.name().contains("w=100"));
        let basic = GssSketch::new(GssConfig::basic(10)).unwrap();
        assert!(basic.name().contains("basic"));
    }

    #[test]
    fn invalid_config_is_rejected() {
        assert!(GssSketch::new(GssConfig { width: 0, ..GssConfig::paper_default(1) }).is_err());
    }

    fn random_items(seed: u64, count: usize, vertices: u64) -> Vec<StreamEdge> {
        let mut state = seed | 1;
        (0..count)
            .map(|t| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                StreamEdge::new(
                    (state >> 33) % vertices,
                    (state >> 17) % vertices,
                    t as u64,
                    (state % 5) as i64 + 1,
                )
            })
            .collect()
    }

    #[test]
    fn insert_batch_is_observationally_identical_to_per_item_insert() {
        for config in [
            GssConfig::paper_default(48),
            GssConfig::paper_small(32),
            GssConfig::basic(32),
            GssConfig { width: 2, rooms: 1, sequence_length: 2, ..GssConfig::paper_default(2) },
        ] {
            let items = random_items(0xBA7C, 800, 120);
            let mut sequential = GssSketch::new(config).unwrap();
            let mut batched = GssSketch::new(config).unwrap();
            for item in &items {
                sequential.insert_item(item);
            }
            for chunk in items.chunks(97) {
                batched.insert_batch(chunk);
            }
            assert_eq!(batched.items_inserted(), sequential.items_inserted());
            assert_eq!(batched.stored_edges(), sequential.stored_edges());
            assert_eq!(batched.buffered_edges(), sequential.buffered_edges());
            for item in &items {
                assert_eq!(
                    batched.edge_weight(item.source, item.destination),
                    sequential.edge_weight(item.source, item.destination),
                    "edge ({}, {})",
                    item.source,
                    item.destination
                );
            }
            for v in 0..120u64 {
                assert_eq!(batched.successors(v), sequential.successors(v), "successors of {v}");
                assert_eq!(batched.precursors(v), sequential.precursors(v), "precursors of {v}");
            }
        }
    }

    #[test]
    fn insert_batch_folds_duplicates_and_counts_every_item() {
        let mut sketch = GssSketch::with_width(32);
        let items: Vec<StreamEdge> = (0..10).map(|t| StreamEdge::new(5, 9, t, 2)).collect();
        sketch.insert_batch(&items);
        assert_eq!(sketch.edge_weight(5, 9), Some(20));
        assert_eq!(sketch.stored_edges(), 1);
        assert_eq!(sketch.items_inserted(), 10);
    }

    #[test]
    fn empty_and_singleton_batches_behave_like_per_item_inserts() {
        let mut sketch = GssSketch::with_width(16);
        sketch.insert_batch(&[]);
        assert_eq!(sketch.items_inserted(), 0);
        sketch.insert_batch(&[StreamEdge::new(1, 2, 0, 7)]);
        assert_eq!(sketch.edge_weight(1, 2), Some(7));
        assert_eq!(sketch.items_inserted(), 1);
    }

    #[test]
    fn insert_stream_chunks_match_per_item_inserts() {
        // 2500 items crosses the internal 1024-item chunk boundary twice.
        let items = random_items(0x57E4, 2500, 300);
        let mut streamed = GssSketch::new(GssConfig::paper_small(40)).unwrap();
        let mut sequential = GssSketch::new(GssConfig::paper_small(40)).unwrap();
        streamed.insert_stream(&mut items.iter().copied());
        for item in &items {
            sequential.insert_item(item);
        }
        assert_eq!(streamed.items_inserted(), 2500);
        for item in &items {
            assert_eq!(
                streamed.edge_weight(item.source, item.destination),
                sequential.edge_weight(item.source, item.destination)
            );
        }
    }

    #[test]
    fn weights_never_underestimate_on_random_streams() {
        // Over-estimation is allowed (collisions add weight), under-estimation is not.
        let mut sketch =
            GssSketch::new(GssConfig::paper_small(48).with_fingerprint_bits(8)).unwrap();
        let mut exact = AdjacencyListGraph::new();
        let mut state = 12345u64;
        for _ in 0..3000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let s = (state >> 33) % 400;
            let d = (state >> 17) % 400;
            let w = (state % 5) as i64 + 1;
            sketch.insert(s, d, w);
            exact.insert(s, d, w);
        }
        for (key, weight) in exact.edges() {
            let reported = sketch
                .edge_weight(key.source, key.destination)
                .expect("true edges are never reported absent");
            assert!(reported >= weight, "edge {key:?}: reported {reported} < true {weight}");
        }
    }

    #[test]
    fn successor_sets_never_miss_true_successors_on_random_streams() {
        let mut sketch =
            GssSketch::new(GssConfig::paper_small(48).with_fingerprint_bits(8)).unwrap();
        let mut exact = AdjacencyListGraph::new();
        let mut state = 98765u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let s = (state >> 33) % 300;
            let d = (state >> 17) % 300;
            sketch.insert(s, d, 1);
            exact.insert(s, d, 1);
        }
        for v in exact.vertices() {
            let reported = sketch.successors(v);
            for truth in exact.successors(v) {
                assert!(reported.contains(&truth), "missing successor {truth} of {v}");
            }
            let reported_pre = sketch.precursors(v);
            for truth in exact.precursors(v) {
                assert!(reported_pre.contains(&truth), "missing precursor {truth} of {v}");
            }
        }
    }
}
