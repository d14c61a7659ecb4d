//! The in-memory bucket matrix: an `m × m` grid of buckets, each with `l` rooms.
//!
//! A *room* stores one sketch edge: the fingerprint pair `⟨f(s), f(d)⟩`, the index pair
//! `(i_s, i_d)` recording which entries of the two address sequences produced this bucket
//! (needed to reverse the mapping during successor/precursor queries, Section V-A), and the
//! accumulated weight.  Multiple rooms per bucket are the "multiple rooms" improvement of
//! Section V-B2.
//!
//! Rooms are stored in a flat `Vec` in row-major bucket order; scanning a row (for successor
//! queries) walks a contiguous region, scanning a column (for precursor queries) strides by
//! `m × l`, mirroring the cache behaviour the paper discusses.  An
//! [`OccupancyIndex`] (per-row and per-column bucket bitmaps) makes both scans
//! load-factor-proportional: only buckets that ever received an edge are probed.
//!
//! [`MemoryStore`] is the dense default backend of the [`RoomStore`] abstraction; the
//! paged file backend lives in [`crate::file_store`].

use crate::storage::{dense_scan, BucketProbe, OccupancyIndex, RoomStore};
use serde::{Deserialize, Serialize};

/// One room: storage for a single sketch edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Room {
    /// Fingerprint of the source node, `f(s)`.
    pub source_fingerprint: u16,
    /// Fingerprint of the destination node, `f(d)`.
    pub destination_fingerprint: u16,
    /// 0-based position in the source's address sequence that produced this bucket's row.
    pub source_index: u8,
    /// 0-based position in the destination's address sequence that produced this column.
    pub destination_index: u8,
    /// Accumulated edge weight.
    pub weight: i64,
    /// Whether the room currently holds an edge.
    pub occupied: bool,
}

impl Room {
    /// Returns `true` if this room holds the edge identified by the given fingerprints and
    /// sequence indices (the match test of the edge-update and edge-query procedures).
    pub fn matches(
        &self,
        source_fingerprint: u16,
        destination_fingerprint: u16,
        source_index: u8,
        destination_index: u8,
    ) -> bool {
        self.occupied
            && self.source_fingerprint == source_fingerprint
            && self.destination_fingerprint == destination_fingerprint
            && self.source_index == source_index
            && self.destination_index == destination_index
    }
}

/// The dense in-memory `m × m × l` room store (the default [`RoomStore`] backend).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryStore {
    width: usize,
    rooms_per_bucket: usize,
    rooms: Vec<Room>,
    occupied_rooms: usize,
    /// Bucket-occupancy bitmaps steering [`RoomStore::scan_row`] /
    /// [`RoomStore::scan_columns`] past empty buckets.
    index: OccupancyIndex,
}

/// Former name of [`MemoryStore`], kept as an alias for existing callers.
pub type BucketMatrix = MemoryStore;

impl MemoryStore {
    /// Allocates an empty matrix of `width × width` buckets with `rooms_per_bucket` rooms.
    pub fn new(width: usize, rooms_per_bucket: usize) -> Self {
        Self {
            width,
            rooms_per_bucket,
            rooms: vec![Room::default(); width * width * rooms_per_bucket],
            occupied_rooms: 0,
            index: OccupancyIndex::new(width),
        }
    }

    /// Side length `m`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Rooms per bucket `l`.
    pub fn rooms_per_bucket(&self) -> usize {
        self.rooms_per_bucket
    }

    /// Total number of rooms.
    pub fn room_count(&self) -> usize {
        self.rooms.len()
    }

    /// Number of currently occupied rooms.
    pub fn occupied_rooms(&self) -> usize {
        self.occupied_rooms
    }

    /// Fraction of rooms occupied.
    pub fn load_factor(&self) -> f64 {
        if self.rooms.is_empty() {
            0.0
        } else {
            self.occupied_rooms as f64 / self.rooms.len() as f64
        }
    }

    /// Index of the first room of bucket `(row, column)`.
    fn bucket_start(&self, row: usize, column: usize) -> usize {
        debug_assert!(row < self.width && column < self.width);
        (row * self.width + column) * self.rooms_per_bucket
    }

    /// Read-only view of the rooms of bucket `(row, column)`.
    pub fn bucket(&self, row: usize, column: usize) -> &[Room] {
        let start = self.bucket_start(row, column);
        &self.rooms[start..start + self.rooms_per_bucket]
    }

    /// Searches bucket `(row, column)` for a room matching the fingerprints/indices; returns
    /// the position of the matching room within the bucket.
    pub fn find_match(
        &self,
        row: usize,
        column: usize,
        source_fingerprint: u16,
        destination_fingerprint: u16,
        source_index: u8,
        destination_index: u8,
    ) -> Option<usize> {
        self.bucket(row, column).iter().position(|room| {
            room.matches(
                source_fingerprint,
                destination_fingerprint,
                source_index,
                destination_index,
            )
        })
    }

    /// Returns the position of the first empty room in bucket `(row, column)`, if any.
    pub fn find_empty(&self, row: usize, column: usize) -> Option<usize> {
        self.bucket(row, column).iter().position(|room| !room.occupied)
    }

    /// Adds `weight` to the room at `slot` in bucket `(row, column)`.
    pub fn add_weight(&mut self, row: usize, column: usize, slot: usize, weight: i64) {
        let start = self.bucket_start(row, column);
        let room = &mut self.rooms[start + slot];
        debug_assert!(room.occupied, "adding weight to an empty room");
        room.weight += weight;
    }

    /// Writes a fresh edge into the room at `slot` in bucket `(row, column)`.
    #[allow(clippy::too_many_arguments)]
    pub fn store(
        &mut self,
        row: usize,
        column: usize,
        slot: usize,
        source_fingerprint: u16,
        destination_fingerprint: u16,
        source_index: u8,
        destination_index: u8,
        weight: i64,
    ) {
        let start = self.bucket_start(row, column);
        let room = &mut self.rooms[start + slot];
        debug_assert!(!room.occupied, "overwriting an occupied room");
        *room = Room {
            source_fingerprint,
            destination_fingerprint,
            source_index,
            destination_index,
            weight,
            occupied: true,
        };
        self.occupied_rooms += 1;
        self.index.mark(row, column);
    }

    /// The bucket-occupancy bitmaps (exposed for white-box tests and memory accounting).
    pub fn occupancy_index(&self) -> &OccupancyIndex {
        &self.index
    }

    /// Iterates over the occupied rooms of matrix row `row` as `(column, &Room)` pairs by
    /// walking the full row — the index-free reference behaviour; the hot path is the
    /// indexed [`RoomStore::scan_row`].
    pub fn row_rooms(&self, row: usize) -> impl Iterator<Item = (usize, &Room)> {
        let start = row * self.width * self.rooms_per_bucket;
        let end = start + self.width * self.rooms_per_bucket;
        let rooms_per_bucket = self.rooms_per_bucket;
        self.rooms[start..end]
            .iter()
            .enumerate()
            .filter(|(_, room)| room.occupied)
            .map(move |(offset, room)| (offset / rooms_per_bucket, room))
    }

    /// Iterates over the occupied rooms of matrix column `column` as `(row, &Room)` pairs
    /// by walking the full column — the index-free reference behaviour; the hot path is
    /// the indexed [`RoomStore::scan_columns`].
    pub fn column_rooms(&self, column: usize) -> impl Iterator<Item = (usize, &Room)> + '_ {
        (0..self.width).flat_map(move |row| {
            self.bucket(row, column)
                .iter()
                .filter(|room| room.occupied)
                .map(move |room| (row, room))
        })
    }

    /// Iterates over every occupied room as `(row, column, &Room)`.
    pub fn occupied(&self) -> impl Iterator<Item = (usize, usize, &Room)> {
        let width = self.width;
        let rooms_per_bucket = self.rooms_per_bucket;
        self.rooms.iter().enumerate().filter(|(_, room)| room.occupied).map(move |(index, room)| {
            let bucket = index / rooms_per_bucket;
            (bucket / width, bucket % width, room)
        })
    }
}

impl RoomStore for MemoryStore {
    fn width(&self) -> usize {
        self.width
    }

    fn rooms_per_bucket(&self) -> usize {
        self.rooms_per_bucket
    }

    fn room_count(&self) -> usize {
        self.rooms.len()
    }

    fn occupied_rooms(&self) -> usize {
        self.occupied_rooms
    }

    fn room(&self, row: usize, column: usize, slot: usize) -> Room {
        self.bucket(row, column)[slot]
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
        MemoryStore::find_match(
            self,
            row,
            column,
            source_fingerprint,
            destination_fingerprint,
            source_index,
            destination_index,
        )
    }

    fn find_empty(&self, row: usize, column: usize) -> Option<usize> {
        MemoryStore::find_empty(self, row, column)
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
        let mut first_empty = None;
        for (slot, room) in self.bucket(row, column).iter().enumerate() {
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

    fn add_weight(&mut self, row: usize, column: usize, slot: usize, weight: i64) {
        MemoryStore::add_weight(self, row, column, slot, weight);
    }

    fn store_room(&mut self, row: usize, column: usize, slot: usize, room: Room) {
        debug_assert!(room.occupied, "storing an unoccupied room");
        self.store(
            row,
            column,
            slot,
            room.source_fingerprint,
            room.destination_fingerprint,
            room.source_index,
            room.destination_index,
            room.weight,
        );
    }

    fn scan_row(&self, row: usize, visit: &mut dyn FnMut(usize, Room)) {
        // Dense rows (≥ 50% of buckets occupied) take a straight linear walk: the
        // bitmap's skip-ahead win has vanished and the contiguous pass is cheaper than
        // per-word bit arithmetic.  Both paths visit in ascending (column, slot) order.
        if dense_scan(self.index.occupied_in_row(row), self.width) {
            for (column, room) in self.row_rooms(row) {
                visit(column, *room);
            }
            return;
        }
        // Index-steered: only buckets that ever received an edge are probed.
        self.index.for_each_in_row(row, |column| {
            for room in self.bucket(row, column) {
                if room.occupied {
                    visit(column, *room);
                }
            }
        });
    }

    fn scan_columns(&self, columns: &[usize], visit: &mut dyn FnMut(usize, usize, Room)) {
        for (position, &column) in columns.iter().enumerate() {
            if dense_scan(self.index.occupied_in_column(column), self.width) {
                for (row, room) in self.column_rooms(column) {
                    visit(position, row, *room);
                }
                continue;
            }
            self.index.for_each_in_column(column, |row| {
                for room in self.bucket(row, column) {
                    if room.occupied {
                        visit(position, row, *room);
                    }
                }
            });
        }
    }

    fn scan_occupied(&self, visit: &mut dyn FnMut(usize, usize, Room)) {
        // Same ascending (row, column, slot) order as the flat iteration, but sparse
        // matrices skip their empty buckets (this is the snapshot-write path).
        for row in 0..self.width {
            self.index.for_each_in_row(row, |column| {
                for room in self.bucket(row, column) {
                    if room.occupied {
                        visit(row, column, *room);
                    }
                }
            });
        }
    }

    fn load_factor(&self) -> f64 {
        MemoryStore::load_factor(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_matrix_is_empty() {
        let matrix = BucketMatrix::new(4, 2);
        assert_eq!(matrix.width(), 4);
        assert_eq!(matrix.rooms_per_bucket(), 2);
        assert_eq!(matrix.room_count(), 32);
        assert_eq!(matrix.occupied_rooms(), 0);
        assert_eq!(matrix.load_factor(), 0.0);
        assert!(matrix.occupied().next().is_none());
    }

    #[test]
    fn store_and_find_round_trip() {
        let mut matrix = BucketMatrix::new(4, 2);
        assert_eq!(matrix.find_empty(1, 2), Some(0));
        matrix.store(1, 2, 0, 10, 20, 3, 4, 7);
        assert_eq!(matrix.find_match(1, 2, 10, 20, 3, 4), Some(0));
        assert_eq!(matrix.find_match(1, 2, 10, 20, 3, 5), None);
        assert_eq!(matrix.find_match(1, 2, 11, 20, 3, 4), None);
        assert_eq!(matrix.find_empty(1, 2), Some(1));
        assert_eq!(matrix.occupied_rooms(), 1);
        let room = matrix.bucket(1, 2)[0];
        assert_eq!(room.weight, 7);
    }

    #[test]
    fn add_weight_accumulates() {
        let mut matrix = BucketMatrix::new(2, 1);
        matrix.store(0, 1, 0, 1, 2, 0, 0, 5);
        matrix.add_weight(0, 1, 0, 3);
        assert_eq!(matrix.bucket(0, 1)[0].weight, 8);
    }

    #[test]
    fn full_bucket_has_no_empty_room() {
        let mut matrix = BucketMatrix::new(2, 2);
        matrix.store(0, 0, 0, 1, 1, 0, 0, 1);
        matrix.store(0, 0, 1, 2, 2, 0, 0, 1);
        assert_eq!(matrix.find_empty(0, 0), None);
        assert_eq!(matrix.load_factor(), 2.0 / 8.0);
    }

    #[test]
    fn row_and_column_iteration_report_positions() {
        let mut matrix = BucketMatrix::new(3, 2);
        matrix.store(1, 0, 0, 5, 6, 1, 2, 10);
        matrix.store(1, 2, 1, 7, 8, 3, 4, 20);
        matrix.store(0, 2, 0, 9, 10, 5, 6, 30);

        let row1: Vec<(usize, i64)> = matrix.row_rooms(1).map(|(c, r)| (c, r.weight)).collect();
        assert_eq!(row1, vec![(0, 10), (2, 20)]);

        let col2: Vec<(usize, i64)> =
            matrix.column_rooms(2).map(|(r, room)| (r, room.weight)).collect();
        assert_eq!(col2, vec![(0, 30), (1, 20)]);

        let all: Vec<(usize, usize, i64)> =
            matrix.occupied().map(|(r, c, room)| (r, c, room.weight)).collect();
        assert_eq!(all.len(), 3);
        assert!(all.contains(&(1, 0, 10)));
        assert!(all.contains(&(1, 2, 20)));
        assert!(all.contains(&(0, 2, 30)));
    }

    #[test]
    fn dense_rows_scan_linearly_with_identical_results() {
        let mut matrix = BucketMatrix::new(8, 2);
        // Row 4: 6 of 8 buckets occupied — past the 50% dense threshold; row 6 sparse.
        for column in 0..6 {
            matrix.store(4, column, 0, 5, 6, 1, 2, column as i64 + 100);
        }
        matrix.store(6, 3, 1, 7, 8, 3, 4, 11);
        for row in [4usize, 6] {
            let mut indexed = Vec::new();
            matrix.scan_row(row, &mut |column, room| indexed.push((column, room.weight)));
            let reference: Vec<(usize, i64)> =
                matrix.row_rooms(row).map(|(c, r)| (c, r.weight)).collect();
            assert_eq!(indexed, reference, "row {row}: dense and sparse paths agree");
        }
        let mut column3 = Vec::new();
        matrix.scan_columns(&[3], &mut |_, row, room| column3.push((row, room.weight)));
        assert_eq!(column3, vec![(4, 103), (6, 11)]);
    }

    #[test]
    fn room_match_requires_all_fields() {
        let room = Room {
            source_fingerprint: 1,
            destination_fingerprint: 2,
            source_index: 3,
            destination_index: 4,
            weight: 5,
            occupied: true,
        };
        assert!(room.matches(1, 2, 3, 4));
        assert!(!room.matches(1, 2, 3, 5));
        assert!(!room.matches(1, 2, 2, 4));
        assert!(!room.matches(1, 3, 3, 4));
        assert!(!room.matches(0, 2, 3, 4));
        let empty = Room { occupied: false, ..room };
        assert!(!empty.matches(1, 2, 3, 4));
    }
}
