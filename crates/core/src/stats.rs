//! Detailed structural statistics of a GSS sketch.
//!
//! The buffer-percentage experiment (Fig. 13) and the memory accounting of the equal-memory
//! comparisons both read these numbers.

use serde::{Deserialize, Serialize};

/// A snapshot of a sketch's internal occupancy and memory usage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GssStats {
    /// Matrix side length `m`.
    pub width: usize,
    /// Rooms per bucket `l`.
    pub rooms_per_bucket: usize,
    /// Fingerprint length in bits.
    pub fingerprint_bits: u32,
    /// Stream items inserted so far.
    pub items_inserted: u64,
    /// Distinct sketch edges stored in the matrix.
    pub matrix_edges: usize,
    /// Distinct sketch edges stored in the left-over buffer.
    pub buffered_edges: usize,
    /// `buffered_edges / (matrix_edges + buffered_edges)`, the metric plotted in Fig. 13.
    pub buffer_percentage: f64,
    /// Fraction of matrix rooms occupied.
    pub matrix_load_factor: f64,
    /// Matrix bytes under the paper's storage layout.
    pub matrix_bytes: usize,
    /// Bytes of the bucket-occupancy bitmaps steering row/column scans (an acceleration
    /// structure outside the paper's layout, so excluded from equal-memory comparisons).
    pub occupancy_index_bytes: usize,
    /// Buffer bytes (adjacency lists + indices).
    pub buffer_bytes: usize,
    /// Bytes of the `⟨H(v), v⟩` reverse table.
    pub node_map_bytes: usize,
    /// Number of distinct original vertices registered in the reverse table.
    pub distinct_hashed_nodes: usize,
    /// Number of hash values shared by two or more original vertices (node collisions).
    pub colliding_hashes: usize,
    /// Current write-ahead-log bytes of a file-backed sketch (0 for in-memory).
    pub wal_bytes: u64,
    /// Drains of the write-ahead-log buffer to disk (at most one per insert or batch;
    /// fewer when group commit folds concurrent writers into one round).
    pub wal_flushes: u64,
    /// Group-commit rounds this sketch's log led (each round drains the pending window
    /// of every committing writer in one positioned write).
    pub wal_group_commits: u64,
    /// Commits that parked behind an in-flight group-commit round instead of draining
    /// themselves — the group-commit batching win in one number.
    pub wal_group_waits: u64,
    /// `fdatasync` calls issued for this sketch's log by the group-commit cadence
    /// (`GroupCommit { max_delay_us, max_bytes }`) and by checkpoints.
    pub fsyncs: u64,
    /// Dirty pages written back to the sketch file (evictions and checkpoints).
    pub pages_flushed: u64,
    /// Completed checkpoints of the sketch file.
    pub checkpoints: u64,
    /// Page-cache lookups of a file-backed sketch (0 for in-memory).
    pub page_lookups: u64,
    /// Page-cache lookups that missed and read the page from disk.
    pub page_faults: u64,
    /// Page-latch acquisitions that blocked behind another thread (contention between
    /// concurrent readers and the writer; 0 under a single thread).
    pub page_latch_waits: u64,
    /// Transient I/O errors (`EINTR`, short reads) absorbed by the pager's bounded
    /// retry loop instead of surfacing to callers.
    pub io_retries: u64,
    /// Faults injected by the deterministic fault plan ([`crate::pager::faults`]);
    /// always 0 outside fault-injection runs.
    pub injected_faults: u64,
    /// 1 when the store has fail-stopped (sticky poisoned state after an unrecoverable
    /// I/O failure), else 0; summed across shards it counts poisoned shards.
    pub store_poisoned: u64,
}

impl GssStats {
    /// Total bytes across matrix, occupancy index, buffer and reverse table.
    pub fn total_bytes(&self) -> usize {
        self.matrix_bytes + self.occupancy_index_bytes + self.buffer_bytes + self.node_map_bytes
    }

    /// Fraction of original vertices involved in at least one hash collision, a cheap proxy
    /// for the `M ≫ |V|` requirement discussed in Section IV.
    pub fn node_collision_rate(&self) -> f64 {
        if self.distinct_hashed_nodes == 0 {
            0.0
        } else {
            self.colliding_hashes as f64 / self.distinct_hashed_nodes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GssStats {
        GssStats {
            width: 100,
            rooms_per_bucket: 2,
            fingerprint_bits: 16,
            items_inserted: 1000,
            matrix_edges: 900,
            buffered_edges: 100,
            buffer_percentage: 0.1,
            matrix_load_factor: 0.045,
            matrix_bytes: 260_000,
            occupancy_index_bytes: 3_200,
            buffer_bytes: 2_400,
            node_map_bytes: 16_000,
            distinct_hashed_nodes: 500,
            colliding_hashes: 5,
            wal_bytes: 4_096,
            wal_flushes: 12,
            wal_group_commits: 10,
            wal_group_waits: 2,
            fsyncs: 4,
            pages_flushed: 30,
            checkpoints: 2,
            page_lookups: 480,
            page_faults: 35,
            page_latch_waits: 0,
            io_retries: 1,
            injected_faults: 0,
            store_poisoned: 0,
        }
    }

    #[test]
    fn total_bytes_sums_components() {
        assert_eq!(sample().total_bytes(), 260_000 + 3_200 + 2_400 + 16_000);
    }

    #[test]
    fn node_collision_rate_is_fraction_of_nodes() {
        assert!((sample().node_collision_rate() - 0.01).abs() < 1e-12);
        let empty = GssStats { distinct_hashed_nodes: 0, colliding_hashes: 0, ..sample() };
        assert_eq!(empty.node_collision_rate(), 0.0);
    }
}
