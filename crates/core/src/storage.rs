//! Pluggable room storage: the [`RoomStore`] trait and its two backends.
//!
//! The `m × m × l` room grid is the only part of a GSS sketch whose size is proportional to
//! the configured matrix rather than to the observed stream, so it is the part that decides
//! whether a `GSS_SCALE=paper` CAIDA-style run fits on a machine.  This module abstracts it
//! behind [`RoomStore`]:
//!
//! * [`MemoryStore`] — the original dense `Vec<Room>` (row-major buckets), fastest and the
//!   default;
//! * [`FileStore`] — a std-only paged file backend
//!   (fixed-size little-endian room records, page-granular I/O, an LRU cache with
//!   dirty-page write-back) for sketches larger than RAM.  A `FileStore` sketch file
//!   doubles as its own checkpoint: see
//!   [`GssSketch::open_file`](crate::GssSketch::open_file).
//!
//! [`RoomStorage`] is the enum the sketch actually holds — enum dispatch keeps
//! [`GssSketch`](crate::GssSketch) a non-generic type so every existing caller, trait
//! object and collection keeps compiling.
//!
//! Both backends, the streaming snapshots of [`persistence`](crate::persistence) and the
//! `FileStore` file body share one fixed-size room record ([`ROOM_RECORD_BYTES`]), encoded
//! little-endian by [`encode_room`] / [`decode_room`], so bytes move between the in-memory
//! matrix, sketch files and snapshots without translation.

use crate::config::GssConfig;
use crate::file_store::FileStore;
use crate::matrix::{MemoryStore, Room};
use crate::persistence::PersistenceError;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Compact per-row and per-column bucket-occupancy bitmaps.
///
/// One bit per bucket in each direction (`2·m²/8` bytes total, under 1% of matrix memory
/// at `l = 2`), set on the first [`RoomStore::store_room`] into a bucket and never
/// cleared (rooms are never freed — deletions zero weights but keep rooms occupied).
/// Row/column scans walk set bits with popcount-guided jumps instead of probing every
/// bucket, which makes successor/precursor queries proportional to the load factor
/// rather than to the matrix geometry.
///
/// The index is a pure acceleration structure: it never reaches disk or snapshots (file
/// format and snapshot bytes stay identical) and is rebuilt from room occupancy on
/// [`open_file`](crate::GssSketch::open_file) and snapshot restore.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OccupancyIndex {
    width: usize,
    words_per_line: usize,
    /// `width` lines of `words_per_line` words; bit `c` of line `r` ⇔ bucket `(r, c)`
    /// holds at least one occupied room.
    rows: Vec<u64>,
    /// The transposed mirror: bit `r` of line `c` ⇔ bucket `(r, c)` is occupied.
    columns: Vec<u64>,
}

impl OccupancyIndex {
    /// An all-empty index for a `width × width` bucket grid.
    pub fn new(width: usize) -> Self {
        let words_per_line = width.div_ceil(64);
        Self {
            width,
            words_per_line,
            rows: vec![0; width * words_per_line],
            columns: vec![0; width * words_per_line],
        }
    }

    /// Marks bucket `(row, column)` as holding at least one occupied room.
    #[inline]
    pub fn mark(&mut self, row: usize, column: usize) {
        debug_assert!(row < self.width && column < self.width);
        self.rows[row * self.words_per_line + column / 64] |= 1u64 << (column % 64);
        self.columns[column * self.words_per_line + row / 64] |= 1u64 << (row % 64);
    }

    /// Whether bucket `(row, column)` has been marked occupied.
    #[inline]
    pub fn contains(&self, row: usize, column: usize) -> bool {
        self.rows[row * self.words_per_line + column / 64] & (1u64 << (column % 64)) != 0
    }

    /// Number of 64-bit words per bitmap line.
    #[inline]
    pub fn words_per_line(&self) -> usize {
        self.words_per_line
    }

    /// The `word`-th bitmap word of row `row` (occupied columns of that row).
    #[inline]
    pub fn row_word(&self, row: usize, word: usize) -> u64 {
        self.rows[row * self.words_per_line + word]
    }

    /// The `word`-th bitmap word of column `column` (occupied rows of that column).
    #[inline]
    pub fn column_word(&self, column: usize, word: usize) -> u64 {
        self.columns[column * self.words_per_line + word]
    }

    /// Visits the occupied columns of `row` in ascending order.
    pub fn for_each_in_row(&self, row: usize, visit: impl FnMut(usize)) {
        Self::for_each_set(&self.rows[row * self.words_per_line..][..self.words_per_line], visit);
    }

    /// Visits the occupied rows of `column` in ascending order.
    pub fn for_each_in_column(&self, column: usize, visit: impl FnMut(usize)) {
        Self::for_each_set(
            &self.columns[column * self.words_per_line..][..self.words_per_line],
            visit,
        );
    }

    /// Heap bytes of the two bitmaps.
    pub fn bytes(&self) -> usize {
        (self.rows.len() + self.columns.len()) * std::mem::size_of::<u64>()
    }

    /// The set bit positions of one bitmap word, offset by `word_index · 64` — the single
    /// home of the `trailing_zeros`/`bits &= bits − 1` walk.  Callers that cannot hold a
    /// borrow of the index across the visit (the file backend's index shares a lock with
    /// its page cache) copy a word out with [`row_word`](Self::row_word) /
    /// [`column_word`](Self::column_word) and iterate it here.
    pub fn set_positions(word_index: usize, mut word: u64) -> impl Iterator<Item = usize> {
        std::iter::from_fn(move || {
            if word == 0 {
                None
            } else {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(word_index * 64 + bit)
            }
        })
    }

    fn for_each_set(line: &[u64], mut visit: impl FnMut(usize)) {
        for (word_index, &word) in line.iter().enumerate() {
            for position in Self::set_positions(word_index, word) {
                visit(position);
            }
        }
    }

    /// Number of occupied buckets in `row` (popcount over the row's bitmap words).
    #[inline]
    pub fn occupied_in_row(&self, row: usize) -> usize {
        self.rows[row * self.words_per_line..][..self.words_per_line]
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum()
    }

    /// Number of occupied buckets in `column`.
    #[inline]
    pub fn occupied_in_column(&self, column: usize) -> usize {
        self.columns[column * self.words_per_line..][..self.words_per_line]
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum()
    }
}

/// Whether a row/column with `occupied_buckets` of `width` marked is dense, i.e. should
/// be read bucket by bucket instead of through the occupancy bitmap: at ≥ 50% occupancy
/// the bitmap's skip-ahead win shrinks toward 1× while its per-bucket word arithmetic
/// still costs.  Dense rows take a linear walk; on the file backend a query's dense
/// columns share one row-major, page-grouped pass ([`RoomStore::scan_columns`]).
#[inline]
pub(crate) fn dense_scan(occupied_buckets: usize, width: usize) -> bool {
    occupied_buckets * 2 >= width
}

/// [`OccupancyIndex`] with atomic bitmap words: the variant the file backend keeps, so
/// concurrent readers can consult row/column words while a writer marks buckets — no
/// global storage lock.  Bits are only ever set (rooms are never freed), so relaxed
/// `fetch_or`/`load` suffice: a reader that misses an in-flight mark simply skips a
/// bucket it would not have been guaranteed to see under any serialization anyway.
///
/// Like its plain counterpart this is a pure acceleration structure — never serialized,
/// rebuilt from room occupancy on open.
#[derive(Debug)]
pub struct AtomicOccupancyIndex {
    width: usize,
    words_per_line: usize,
    rows: Vec<std::sync::atomic::AtomicU64>,
    columns: Vec<std::sync::atomic::AtomicU64>,
}

impl AtomicOccupancyIndex {
    /// An all-empty index for a `width × width` bucket grid.
    pub fn new(width: usize) -> Self {
        use std::sync::atomic::AtomicU64;
        let words_per_line = width.div_ceil(64);
        Self {
            width,
            words_per_line,
            rows: (0..width * words_per_line).map(|_| AtomicU64::new(0)).collect(),
            columns: (0..width * words_per_line).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Marks bucket `(row, column)` as holding at least one occupied room.  `&self`: safe
    /// to call while other threads read the index.
    #[inline]
    pub fn mark(&self, row: usize, column: usize) {
        use std::sync::atomic::Ordering;
        debug_assert!(row < self.width && column < self.width);
        // relaxed: the bit is a monotonic hint for scan pruning; readers that miss a
        // freshly set bit just scan one extra bucket, they never skip occupied data.
        self.rows[row * self.words_per_line + column / 64]
            .fetch_or(1u64 << (column % 64), Ordering::Relaxed);
        // relaxed: same monotonic-hint contract as the row bit above.
        self.columns[column * self.words_per_line + row / 64]
            .fetch_or(1u64 << (row % 64), Ordering::Relaxed);
    }

    /// Whether bucket `(row, column)` has been marked occupied.
    #[inline]
    pub fn contains(&self, row: usize, column: usize) -> bool {
        use std::sync::atomic::Ordering;
        // relaxed: a stale read only widens the scan by one bucket (see `mark`).
        self.rows[row * self.words_per_line + column / 64].load(Ordering::Relaxed)
            & (1u64 << (column % 64))
            != 0
    }

    /// Number of 64-bit words per bitmap line.
    #[inline]
    pub fn words_per_line(&self) -> usize {
        self.words_per_line
    }

    /// The `word`-th bitmap word of row `row` (occupied columns of that row).
    #[inline]
    pub fn row_word(&self, row: usize, word: usize) -> u64 {
        // relaxed: scan-pruning hint, same contract as `contains`.
        self.rows[row * self.words_per_line + word].load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The `word`-th bitmap word of column `column` (occupied rows of that column).
    #[inline]
    pub fn column_word(&self, column: usize, word: usize) -> u64 {
        // relaxed: scan-pruning hint, same contract as `contains`.
        self.columns[column * self.words_per_line + word].load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of occupied buckets in `row`.
    #[inline]
    pub fn occupied_in_row(&self, row: usize) -> usize {
        (0..self.words_per_line).map(|word| self.row_word(row, word).count_ones() as usize).sum()
    }

    /// Number of occupied buckets in `column`.
    #[inline]
    pub fn occupied_in_column(&self, column: usize) -> usize {
        (0..self.words_per_line)
            .map(|word| self.column_word(column, word).count_ones() as usize)
            .sum()
    }

    /// Heap bytes of the two bitmaps.
    pub fn bytes(&self) -> usize {
        (self.rows.len() + self.columns.len()) * std::mem::size_of::<u64>()
    }
}

/// The outcome of a fused single-pass bucket probe ([`RoomStore::probe_bucket`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketProbe {
    /// The bucket holds the probed edge at this slot.
    Match(usize),
    /// No match; this is the first empty slot.
    Empty(usize),
    /// No match and no empty slot.
    Full,
}

/// Size of one encoded room record in bytes (fingerprint pair, index pair, occupancy flag,
/// one pad byte, 8-byte weight).
pub const ROOM_RECORD_BYTES: usize = 16;

/// Byte offset of the occupancy flag inside a room record — the one field readers may
/// inspect without decoding the record (the `FileStore` index rebuild streams just this
/// byte).  Must match [`encode_room`]/[`decode_room`] below.
pub const ROOM_OCCUPIED_BYTE: usize = 6;

/// Size of the encoded [`GssConfig`] used in file headers and snapshots.
pub(crate) const CONFIG_BYTES: usize = 45;

/// Encodes one room as a fixed-size little-endian record.
///
/// Layout: `source_fingerprint u16 | destination_fingerprint u16 | source_index u8 |
/// destination_index u8 | occupied u8 | pad u8 | weight i64`.
pub fn encode_room(room: &Room) -> [u8; ROOM_RECORD_BYTES] {
    let mut bytes = [0u8; ROOM_RECORD_BYTES];
    bytes[0..2].copy_from_slice(&room.source_fingerprint.to_le_bytes());
    bytes[2..4].copy_from_slice(&room.destination_fingerprint.to_le_bytes());
    bytes[4] = room.source_index;
    bytes[5] = room.destination_index;
    bytes[ROOM_OCCUPIED_BYTE] = room.occupied as u8;
    bytes[8..16].copy_from_slice(&room.weight.to_le_bytes());
    bytes
}

/// Decodes a room record written by [`encode_room`].  Total: any byte pattern decodes
/// (an arbitrary occupancy byte is read as "occupied"), so corrupt inputs surface as
/// validation errors downstream, never as panics.
pub fn decode_room(bytes: &[u8; ROOM_RECORD_BYTES]) -> Room {
    Room {
        source_fingerprint: u16::from_le_bytes([bytes[0], bytes[1]]),
        destination_fingerprint: u16::from_le_bytes([bytes[2], bytes[3]]),
        source_index: bytes[4],
        destination_index: bytes[5],
        occupied: bytes[ROOM_OCCUPIED_BYTE] != 0,
        weight: i64::from_le_bytes(bytes[8..16].try_into().expect("length checked")),
    }
}

/// Encodes a configuration as the fixed [`CONFIG_BYTES`]-byte block shared by snapshots
/// and sketch-file headers.
pub(crate) fn encode_config(config: &GssConfig) -> [u8; CONFIG_BYTES] {
    let mut bytes = [0u8; CONFIG_BYTES];
    bytes[0..8].copy_from_slice(&(config.width as u64).to_le_bytes());
    bytes[8..12].copy_from_slice(&config.fingerprint_bits.to_le_bytes());
    bytes[12..20].copy_from_slice(&(config.rooms as u64).to_le_bytes());
    bytes[20..28].copy_from_slice(&(config.sequence_length as u64).to_le_bytes());
    bytes[28..36].copy_from_slice(&(config.candidates as u64).to_le_bytes());
    bytes[36] = (config.square_hashing as u8)
        | ((config.sampling as u8) << 1)
        | ((config.track_node_ids as u8) << 2);
    bytes[37..45].copy_from_slice(&config.hash_seed.to_le_bytes());
    bytes
}

/// Decodes and validates a configuration block written by [`encode_config`].
pub(crate) fn decode_config(bytes: &[u8; CONFIG_BYTES]) -> Result<GssConfig, PersistenceError> {
    let u64_at = |offset: usize| {
        u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("length checked"))
    };
    let flags = bytes[36];
    let config = GssConfig {
        width: u64_at(0) as usize,
        fingerprint_bits: u32::from_le_bytes(bytes[8..12].try_into().expect("length checked")),
        rooms: u64_at(12) as usize,
        sequence_length: u64_at(20) as usize,
        candidates: u64_at(28) as usize,
        square_hashing: flags & 1 != 0,
        sampling: flags & 2 != 0,
        track_node_ids: flags & 4 != 0,
        hash_seed: u64_at(37),
    };
    config.validate().map_err(|error| PersistenceError::InvalidConfig(error.to_string()))?;
    Ok(config)
}

/// Where a sketch keeps its room matrix.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StorageBackend {
    /// Dense in-memory `Vec<Room>` (the default; fastest).
    #[default]
    Memory,
    /// Paged sketch file at `path` with an LRU cache of `cache_pages` 4-KiB pages.
    /// The file is created (truncating any existing file) when the sketch is built; use
    /// [`GssSketch::open_file`](crate::GssSketch::open_file) to reopen an existing one.
    File {
        /// Location of the sketch file.
        path: PathBuf,
        /// Number of 4-KiB pages the cache may hold (clamped to at least 1).
        cache_pages: usize,
    },
}

impl StorageBackend {
    /// Convenience constructor for the file backend with the default cache size
    /// ([`FileStore::DEFAULT_CACHE_PAGES`]).
    pub fn file(path: impl Into<PathBuf>) -> Self {
        Self::File { path: path.into(), cache_pages: FileStore::DEFAULT_CACHE_PAGES }
    }

    /// Derives the backend for shard `index` of a sharded sketch: memory stays memory, a
    /// file backend gets `<name>.shard<index>` appended so every shard owns its own file.
    pub(crate) fn for_shard(&self, index: usize) -> Self {
        match self {
            Self::Memory => Self::Memory,
            Self::File { path, cache_pages } => {
                let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
                name.push(format!(".shard{index}"));
                Self::File { path: path.with_file_name(name), cache_pages: *cache_pages }
            }
        }
    }
}

/// Random access to an `m × m × l` grid of rooms.
///
/// Scan callbacks visit **occupied rooms only** and pass rooms by value (records are 16
/// bytes), so implementations backed by page caches need not hand out references into
/// locked internals.
///
/// **Concurrency contract**: every read method takes `&self` and both backends keep that
/// promise literal — concurrent readers never observe torn rooms and (on the file
/// backend, whose page cache is lock-striped with per-page latches) never serialize on a
/// store-wide lock.  Mutation stays `&mut self`, so a store has at most one writer at a
/// time; concurrent ingest scales by sharding (`ShardedGss`), one store per shard, with
/// readers fanning out across all shards.
pub trait RoomStore {
    /// Side length `m`.
    fn width(&self) -> usize;
    /// Rooms per bucket `l`.
    fn rooms_per_bucket(&self) -> usize;
    /// Total number of rooms (`m² × l`).
    fn room_count(&self) -> usize;
    /// Number of currently occupied rooms.
    fn occupied_rooms(&self) -> usize;
    /// Reads the room at `slot` of bucket `(row, column)`.
    fn room(&self, row: usize, column: usize, slot: usize) -> Room;
    /// Position within bucket `(row, column)` of the room matching the fingerprint/index
    /// quadruple, if any.
    fn find_match(
        &self,
        row: usize,
        column: usize,
        source_fingerprint: u16,
        destination_fingerprint: u16,
        source_index: u8,
        destination_index: u8,
    ) -> Option<usize>;
    /// Position of the first empty room in bucket `(row, column)`, if any.
    fn find_empty(&self, row: usize, column: usize) -> Option<usize>;
    /// Fused single-pass probe of bucket `(row, column)`: the slot matching the
    /// fingerprint/index quadruple, else the first empty slot, else
    /// [`BucketProbe::Full`] — observationally identical to [`find_match`] followed by
    /// [`find_empty`], in one pass over the bucket (half the bucket reads, and half the
    /// page-cache lookups on the file backend).
    ///
    /// [`find_match`]: RoomStore::find_match
    /// [`find_empty`]: RoomStore::find_empty
    fn probe_bucket(
        &self,
        row: usize,
        column: usize,
        source_fingerprint: u16,
        destination_fingerprint: u16,
        source_index: u8,
        destination_index: u8,
    ) -> BucketProbe {
        let mut first_empty = None;
        for slot in 0..self.rooms_per_bucket() {
            let room = self.room(row, column, slot);
            if room.matches(
                source_fingerprint,
                destination_fingerprint,
                source_index,
                destination_index,
            ) {
                return BucketProbe::Match(slot);
            }
            if !room.occupied && first_empty.is_none() {
                first_empty = Some(slot);
            }
        }
        first_empty.map_or(BucketProbe::Full, BucketProbe::Empty)
    }
    /// Adds `weight` to the (occupied) room at `slot` of bucket `(row, column)`.
    fn add_weight(&mut self, row: usize, column: usize, slot: usize, weight: i64);
    /// Writes a fresh edge into the (empty) room at `slot` of bucket `(row, column)`.
    fn store_room(&mut self, row: usize, column: usize, slot: usize, room: Room);
    /// Visits every occupied room of matrix row `row` as `(column, room)`.
    fn scan_row(&self, row: usize, visit: &mut dyn FnMut(usize, Room));
    /// Visits every occupied room of each listed matrix column as `(position, row, room)`,
    /// where `position` indexes `columns` — a precursor query passes its whole address
    /// sequence in one call, and a column listed twice is visited once per position.
    /// Each position's rooms arrive in ascending `(row, slot)` order; visits of
    /// different positions may interleave, so a backend can read the listed columns
    /// together (the file backend reads each page of a row's dense-column buckets once).
    fn scan_columns(&self, columns: &[usize], visit: &mut dyn FnMut(usize, usize, Room));
    /// Visits every occupied room as `(row, column, room)`.
    fn scan_occupied(&self, visit: &mut dyn FnMut(usize, usize, Room));

    /// Fraction of rooms occupied.
    fn load_factor(&self) -> f64 {
        if self.room_count() == 0 {
            0.0
        } else {
            self.occupied_rooms() as f64 / self.room_count() as f64
        }
    }
}

/// Reference full-grid row scan, **ignoring any occupancy index**: probes every bucket of
/// the row through [`RoomStore::room`].  This is the geometry-proportional behaviour the
/// indexed [`RoomStore::scan_row`] replaced; it is kept as the observational baseline for
/// the equivalence property tests and the `query_scaling` bench.
pub fn naive_scan_row<S: RoomStore + ?Sized>(
    store: &S,
    row: usize,
    visit: &mut dyn FnMut(usize, Room),
) {
    for column in 0..store.width() {
        for slot in 0..store.rooms_per_bucket() {
            let room = store.room(row, column, slot);
            if room.occupied {
                visit(column, room);
            }
        }
    }
}

/// Reference full-grid column scan, ignoring any occupancy index (see [`naive_scan_row`]).
pub fn naive_scan_column<S: RoomStore + ?Sized>(
    store: &S,
    column: usize,
    visit: &mut dyn FnMut(usize, Room),
) {
    for row in 0..store.width() {
        for slot in 0..store.rooms_per_bucket() {
            let room = store.room(row, column, slot);
            if room.occupied {
                visit(row, room);
            }
        }
    }
}

/// The store a [`GssSketch`](crate::GssSketch) holds: enum dispatch over the two backends.
/// The file backend is boxed — its page cache, WAL and checkpoint state would otherwise
/// inflate every in-memory sketch by the size of the larger variant.
#[derive(Debug)]
pub enum RoomStorage {
    /// Dense in-memory backend.
    Memory(MemoryStore),
    /// Paged file backend.
    File(Box<FileStore>),
}

impl RoomStorage {
    /// Fallible [`RoomStore::add_weight`]: the in-memory backend cannot fail, the file
    /// backend health-gates the write and returns the sticky
    /// [`StoreFault`](crate::error::StoreFault) instead of panicking — the typed
    /// fail-stop path ([`GssSketch::try_insert`](crate::GssSketch::try_insert)) runs
    /// through this.
    pub fn try_add_weight(
        &mut self,
        row: usize,
        column: usize,
        slot: usize,
        weight: i64,
    ) -> Result<(), crate::error::StoreFault> {
        match self {
            Self::Memory(store) => {
                store.add_weight(row, column, slot, weight);
                Ok(())
            }
            Self::File(store) => store.try_add_weight(row, column, slot, weight),
        }
    }

    /// Fallible [`RoomStore::probe_bucket`] (see [`try_add_weight`](Self::try_add_weight)):
    /// on the file backend a probe's cache miss may have to evict a dirty page, so even
    /// this read-side step can trip over a latched write-back fault.
    pub fn try_probe_bucket(
        &self,
        row: usize,
        column: usize,
        source_fingerprint: u16,
        destination_fingerprint: u16,
        source_index: u8,
        destination_index: u8,
    ) -> Result<BucketProbe, crate::error::StoreFault> {
        match self {
            Self::Memory(store) => Ok(store.probe_bucket(
                row,
                column,
                source_fingerprint,
                destination_fingerprint,
                source_index,
                destination_index,
            )),
            Self::File(store) => store.try_probe_bucket(
                row,
                column,
                source_fingerprint,
                destination_fingerprint,
                source_index,
                destination_index,
            ),
        }
    }

    /// Fallible [`RoomStore::store_room`] (see [`try_add_weight`](Self::try_add_weight)).
    pub fn try_store_room(
        &mut self,
        row: usize,
        column: usize,
        slot: usize,
        room: Room,
    ) -> Result<(), crate::error::StoreFault> {
        match self {
            Self::Memory(store) => {
                store.store_room(row, column, slot, room);
                Ok(())
            }
            Self::File(store) => store.try_store_room(row, column, slot, room),
        }
    }

    /// Which backend this is, for stats and display.
    pub fn backend_name(&self) -> &'static str {
        match self {
            Self::Memory(_) => "memory",
            Self::File(_) => "file",
        }
    }

    /// The file store, when file-backed (page-cache statistics live there).
    pub fn as_file(&self) -> Option<&FileStore> {
        match self {
            Self::Memory(_) => None,
            Self::File(store) => Some(store),
        }
    }

    /// Full-grid row scan ignoring the occupancy index — the pre-index behaviour, kept as
    /// the baseline the `query_scaling` bench and the equivalence tests measure against.
    /// The file backend takes its page-cache lock once for the whole scan, exactly like
    /// the indexed [`RoomStore::scan_row`].
    pub fn scan_row_naive(&self, row: usize, visit: &mut dyn FnMut(usize, Room)) {
        match self {
            Self::Memory(store) => naive_scan_row(store, row, visit),
            Self::File(store) => store.scan_row_naive(row, visit),
        }
    }

    /// Full-grid column scan ignoring the occupancy index (see
    /// [`scan_row_naive`](Self::scan_row_naive)).
    pub fn scan_column_naive(&self, column: usize, visit: &mut dyn FnMut(usize, Room)) {
        match self {
            Self::Memory(store) => naive_scan_column(store, column, visit),
            Self::File(store) => store.scan_column_naive(column, visit),
        }
    }
}

/// Cloning a file-backed store **detaches it into memory**: the clone is a
/// [`MemoryStore`] holding the same rooms, leaving the original file untouched.  This is
/// what merge/analysis paths want (they clone to read), and it keeps
/// `#[derive(Clone)]`-style ergonomics on the sketch without duplicating files on disk.
impl Clone for RoomStorage {
    fn clone(&self) -> Self {
        match self {
            Self::Memory(store) => Self::Memory(store.clone()),
            Self::File(store) => {
                let mut memory = MemoryStore::new(store.width(), store.rooms_per_bucket());
                store.scan_occupied(&mut |row, column, room| {
                    memory.store_room(row, column, memory_slot_for(&memory, row, column), room);
                });
                Self::Memory(memory)
            }
        }
    }
}

/// First free slot of a bucket during a detach-copy (the scan visits rooms bucket-major,
/// so this is just the running fill level).
fn memory_slot_for(memory: &MemoryStore, row: usize, column: usize) -> usize {
    memory.find_empty(row, column).expect("detach copy cannot overfill a bucket")
}

macro_rules! dispatch {
    ($self:ident, $store:ident => $body:expr) => {
        match $self {
            RoomStorage::Memory($store) => $body,
            RoomStorage::File($store) => $body,
        }
    };
}

impl RoomStore for RoomStorage {
    fn width(&self) -> usize {
        dispatch!(self, store => store.width())
    }

    fn rooms_per_bucket(&self) -> usize {
        dispatch!(self, store => store.rooms_per_bucket())
    }

    fn room_count(&self) -> usize {
        dispatch!(self, store => store.room_count())
    }

    fn occupied_rooms(&self) -> usize {
        dispatch!(self, store => store.occupied_rooms())
    }

    fn room(&self, row: usize, column: usize, slot: usize) -> Room {
        dispatch!(self, store => store.room(row, column, slot))
    }

    fn find_match(
        &self,
        row: usize,
        column: usize,
        source_fingerprint: u16,
        destination_fingerprint: u16,
        source_index: u8,
        destination_index: u8,
    ) -> Option<usize> {
        dispatch!(self, store => store.find_match(
            row,
            column,
            source_fingerprint,
            destination_fingerprint,
            source_index,
            destination_index,
        ))
    }

    fn find_empty(&self, row: usize, column: usize) -> Option<usize> {
        dispatch!(self, store => store.find_empty(row, column))
    }

    fn probe_bucket(
        &self,
        row: usize,
        column: usize,
        source_fingerprint: u16,
        destination_fingerprint: u16,
        source_index: u8,
        destination_index: u8,
    ) -> BucketProbe {
        dispatch!(self, store => store.probe_bucket(
            row,
            column,
            source_fingerprint,
            destination_fingerprint,
            source_index,
            destination_index,
        ))
    }

    fn add_weight(&mut self, row: usize, column: usize, slot: usize, weight: i64) {
        dispatch!(self, store => store.add_weight(row, column, slot, weight))
    }

    fn store_room(&mut self, row: usize, column: usize, slot: usize, room: Room) {
        dispatch!(self, store => store.store_room(row, column, slot, room))
    }

    fn scan_row(&self, row: usize, visit: &mut dyn FnMut(usize, Room)) {
        dispatch!(self, store => store.scan_row(row, visit))
    }

    fn scan_columns(&self, columns: &[usize], visit: &mut dyn FnMut(usize, usize, Room)) {
        dispatch!(self, store => store.scan_columns(columns, visit))
    }

    fn scan_occupied(&self, visit: &mut dyn FnMut(usize, usize, Room)) {
        dispatch!(self, store => store.scan_occupied(visit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_room() -> Room {
        Room {
            source_fingerprint: 0xA1B2,
            destination_fingerprint: 0x0304,
            source_index: 7,
            destination_index: 11,
            weight: -123_456_789,
            occupied: true,
        }
    }

    #[test]
    fn room_record_round_trips() {
        let room = sample_room();
        let bytes = encode_room(&room);
        assert_eq!(bytes.len(), ROOM_RECORD_BYTES);
        assert_eq!(decode_room(&bytes), room);
        let empty = Room::default();
        assert_eq!(decode_room(&encode_room(&empty)), empty);
    }

    #[test]
    fn room_record_is_little_endian_and_padded() {
        let bytes = encode_room(&sample_room());
        assert_eq!(bytes[0..2], [0xB2, 0xA1]);
        assert_eq!(bytes[6], 1);
        assert_eq!(bytes[7], 0, "pad byte stays zero");
    }

    #[test]
    fn any_byte_pattern_decodes_without_panicking() {
        let mut bytes = [0u8; ROOM_RECORD_BYTES];
        for (i, byte) in bytes.iter_mut().enumerate() {
            *byte = (i as u8).wrapping_mul(37).wrapping_add(191);
        }
        let room = decode_room(&bytes);
        assert!(room.occupied, "non-zero occupancy byte reads as occupied");
    }

    #[test]
    fn config_block_round_trips() {
        let config = GssConfig::paper_small(321).with_fingerprint_bits(12).with_hash_seed(99);
        let decoded = decode_config(&encode_config(&config)).unwrap();
        assert_eq!(decoded, config);
    }

    #[test]
    fn invalid_config_blocks_are_rejected() {
        let mut bytes = encode_config(&GssConfig::paper_default(10));
        bytes[0..8].copy_from_slice(&0u64.to_le_bytes()); // width = 0
        assert!(matches!(decode_config(&bytes), Err(PersistenceError::InvalidConfig(_))));
    }

    #[test]
    fn shard_backends_get_distinct_paths() {
        let backend = StorageBackend::file("/tmp/demo.gss");
        let shard0 = backend.for_shard(0);
        let shard1 = backend.for_shard(1);
        assert_ne!(shard0, shard1);
        match (&shard0, &shard1) {
            (StorageBackend::File { path: a, .. }, StorageBackend::File { path: b, .. }) => {
                assert!(a.to_string_lossy().ends_with("demo.gss.shard0"));
                assert!(b.to_string_lossy().ends_with("demo.gss.shard1"));
            }
            _ => panic!("expected file backends"),
        }
        assert_eq!(StorageBackend::Memory.for_shard(3), StorageBackend::Memory);
    }

    #[test]
    fn occupancy_index_marks_and_iterates_across_word_boundaries() {
        // Width 70 straddles the 64-bit word boundary in every line.
        let mut index = OccupancyIndex::new(70);
        assert_eq!(index.words_per_line(), 2);
        assert!(index.bytes() > 0);
        let marks = [(0, 0), (0, 63), (0, 64), (0, 69), (5, 2), (63, 5), (64, 5), (69, 68)];
        for &(row, column) in &marks {
            assert!(!index.contains(row, column));
            index.mark(row, column);
            assert!(index.contains(row, column));
        }
        index.mark(0, 64); // re-marking is idempotent
        let mut row0 = Vec::new();
        index.for_each_in_row(0, |column| row0.push(column));
        assert_eq!(row0, vec![0, 63, 64, 69], "ascending column order");
        let mut column5 = Vec::new();
        index.for_each_in_column(5, |row| column5.push(row));
        assert_eq!(column5, vec![63, 64], "ascending row order");
        let mut empty = Vec::new();
        index.for_each_in_row(33, |column| empty.push(column));
        assert!(empty.is_empty());
    }

    #[test]
    fn atomic_occupancy_index_matches_the_plain_one_under_concurrent_marks() {
        let index = std::sync::Arc::new(AtomicOccupancyIndex::new(70));
        assert_eq!(index.words_per_line(), 2);
        let markers: Vec<_> = (0..4usize)
            .map(|t| {
                let index = std::sync::Arc::clone(&index);
                std::thread::spawn(move || {
                    for i in 0..70 {
                        index.mark((i * 13 + t * 17) % 70, i);
                    }
                })
            })
            .collect();
        for marker in markers {
            marker.join().unwrap();
        }
        // Replay the same marks into the plain index: every word must agree.
        let mut plain = OccupancyIndex::new(70);
        for t in 0..4usize {
            for i in 0..70 {
                plain.mark((i * 13 + t * 17) % 70, i);
            }
        }
        for line in 0..70 {
            for word in 0..2 {
                assert_eq!(index.row_word(line, word), plain.row_word(line, word));
                assert_eq!(index.column_word(line, word), plain.column_word(line, word));
            }
            assert_eq!(index.occupied_in_row(line), plain.occupied_in_row(line));
            assert_eq!(index.occupied_in_column(line), plain.occupied_in_column(line));
        }
        assert_eq!(index.bytes(), plain.bytes());
        assert!(index.contains(0, 0) == plain.contains(0, 0));
    }

    #[test]
    fn dense_scan_threshold_trips_at_half_occupancy() {
        assert!(!dense_scan(0, 8));
        assert!(!dense_scan(3, 8));
        assert!(dense_scan(4, 8), "50% occupancy switches to the linear walk");
        assert!(dense_scan(8, 8));
        assert!(dense_scan(0, 0), "degenerate zero-width rows count as dense");
    }

    #[test]
    fn probe_bucket_fuses_find_match_and_find_empty() {
        let mut storage = RoomStorage::Memory(MemoryStore::new(4, 2));
        // Empty bucket: first empty slot.
        assert_eq!(storage.probe_bucket(1, 2, 1, 2, 3, 4), BucketProbe::Empty(0));
        storage.store_room(1, 2, 0, sample_room());
        // Match wins over the remaining empty slot.
        assert_eq!(storage.probe_bucket(1, 2, 0xA1B2, 0x0304, 7, 11), BucketProbe::Match(0));
        // Miss falls through to the empty slot.
        assert_eq!(storage.probe_bucket(1, 2, 1, 2, 3, 4), BucketProbe::Empty(1));
        storage.store_room(1, 2, 1, Room { source_fingerprint: 9, ..sample_room() });
        assert_eq!(storage.probe_bucket(1, 2, 9, 0x0304, 7, 11), BucketProbe::Match(1));
        assert_eq!(storage.probe_bucket(1, 2, 1, 2, 3, 4), BucketProbe::Full);
    }

    #[test]
    fn naive_scans_visit_what_indexed_scans_visit() {
        let mut store = MemoryStore::new(5, 2);
        store.store_room(2, 0, 0, sample_room());
        store.store_room(2, 4, 0, sample_room());
        store.store_room(0, 4, 0, sample_room());
        let mut indexed = Vec::new();
        store.scan_row(2, &mut |column, _| indexed.push(column));
        let mut naive = Vec::new();
        naive_scan_row(&store, 2, &mut |column, _| naive.push(column));
        assert_eq!(indexed, naive);
        assert_eq!(indexed, vec![0, 4]);
        let mut indexed = Vec::new();
        store.scan_columns(&[4], &mut |_, row, _| indexed.push(row));
        let mut naive = Vec::new();
        naive_scan_column(&store, 4, &mut |row, _| naive.push(row));
        assert_eq!(indexed, naive);
        assert_eq!(indexed, vec![0, 2]);
    }

    #[test]
    fn memory_storage_dispatches_through_the_trait() {
        let mut storage = RoomStorage::Memory(MemoryStore::new(4, 2));
        assert_eq!(storage.backend_name(), "memory");
        assert_eq!(storage.width(), 4);
        assert_eq!(storage.room_count(), 32);
        storage.store_room(1, 2, 0, sample_room());
        assert_eq!(storage.occupied_rooms(), 1);
        let got = storage.room(1, 2, 0);
        assert_eq!(got, sample_room());
        assert_eq!(storage.find_match(1, 2, 0xA1B2, 0x0304, 7, 11), Some(0));
        assert_eq!(storage.find_empty(1, 2), Some(1));
        storage.add_weight(1, 2, 0, 10);
        assert_eq!(storage.room(1, 2, 0).weight, -123_456_779);
        let mut seen = Vec::new();
        storage.scan_occupied(&mut |r, c, room| seen.push((r, c, room.weight)));
        assert_eq!(seen, vec![(1, 2, -123_456_779)]);
        let cloned = storage.clone();
        assert_eq!(cloned.occupied_rooms(), 1);
    }
}
