//! Tier-1 smoke test for the file-backed storage path: build a `FileStore` sketch in a
//! temp dir, fill it, drop it (the drop checkpoints the file), and reopen it in place —
//! the end-to-end life cycle every file-backed deployment goes through.

use gss::prelude::*;
use gss_core::file_store::PAGE_BYTES;
use gss_core::{StorageBackend, ROOM_RECORD_BYTES};
use std::path::PathBuf;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gss-file-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir creatable");
    dir
}

#[test]
fn build_fill_drop_reopen_round_trip() {
    let dir = temp_dir();
    let path = dir.join("smoke.gss");
    let config = GssConfig::paper_small(40);
    let items: Vec<(u64, u64, i64)> = {
        let mut state = 41u64;
        (0..5000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) % 400, (state >> 17) % 400, (state % 9) as i64 + 1)
            })
            .collect()
    };

    // Build and fill through the builder's file-backend knob; remember ground truth.
    let mut expected = AdjacencyListGraph::new();
    {
        let mut sketch = GssBuilder::from_config(config)
            .storage(StorageBackend::File { path: path.clone(), cache_pages: 8 })
            .build()
            .expect("file-backed sketch builds");
        for &(s, d, w) in &items {
            sketch.insert(s, d, w);
            expected.insert(s, d, w);
        }
        assert_eq!(sketch.storage_backend(), "file");
        assert_eq!(sketch.items_inserted(), items.len() as u64);
    } // drop: the sketch file becomes its own checkpoint

    // Reopen in place and verify the full state survived.
    let reopened = GssSketch::open_file(&path, 8).expect("sketch file reopens after drop");
    assert_eq!(reopened.config(), &config);
    assert_eq!(reopened.items_inserted(), items.len() as u64);
    for (key, weight) in expected.edges() {
        let reported = reopened
            .edge_weight(key.source, key.destination)
            .expect("true edges never reported absent");
        assert!(reported >= weight, "edge {key:?} under-estimated after reopen");
    }
    for v in expected.vertices().into_iter().take(50) {
        let successors = reopened.successors(v);
        for truth in expected.successors(v) {
            assert!(successors.contains(&truth), "missing successor {truth} of {v}");
        }
    }

    // The reopened sketch stays writable and checkpointable.
    let mut reopened = reopened;
    reopened.insert(9999, 8888, 3);
    reopened.sync().expect("explicit sync succeeds");
    drop(reopened);
    let again = GssSketch::open_file(&path, 8).expect("second reopen");
    assert_eq!(again.edge_weight(9999, 8888), Some(3));
    assert_eq!(again.items_inserted(), items.len() as u64 + 1);

    drop(again);
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}

#[test]
fn rejected_open_leaves_the_sketch_file_untouched() {
    // A small overloaded matrix guarantees a non-empty tail (buffered edges).
    let dir = temp_dir();
    let path = dir.join("corrupt-tail.gss");
    let config = GssConfig {
        width: 4,
        rooms: 1,
        sequence_length: 2,
        candidates: 2,
        ..GssConfig::paper_default(4)
    };
    {
        let mut sketch = GssBuilder::from_config(config)
            .storage(StorageBackend::File { path: path.clone(), cache_pages: 4 })
            .build()
            .unwrap();
        for s in 0..40u64 {
            for d in 0..4u64 {
                sketch.insert(s, d, 1);
            }
        }
        assert!(sketch.buffered_edges() > 0, "tail must be non-trivial");
    }

    // Corrupt the first byte of the tail (the buffered-edge count): width 4 × 4 buckets
    // × 1 room = 256 rooms = exactly one 4-KiB page, so the tail starts at 8192.
    let mut bytes = std::fs::read(&path).unwrap();
    let tail_offset = 8192;
    bytes[tail_offset] = 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let before = std::fs::read(&path).unwrap();

    // The open must fail — and failing must not modify the file (a regression here means
    // the half-built sketch checkpointed partial state over the evidence on drop).
    assert!(GssSketch::open_file(&path, 4).is_err());
    let after = std::fs::read(&path).unwrap();
    assert_eq!(before, after, "rejected open must leave the file byte-for-byte intact");
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}

#[test]
fn snapshots_restore_onto_a_file_backend() {
    let dir = temp_dir();
    let target = dir.join("restored.gss");
    let mut original = GssSketch::builder().width(48).build().unwrap();
    let mut state = 7u64;
    for _ in 0..3000 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        original.insert((state >> 33) % 300, (state >> 17) % 300, (state % 5) as i64 + 1);
    }
    let snapshot = original.to_snapshot();

    // Restore the snapshot straight into a sketch file — the larger-than-RAM restore
    // path — and verify it answers identically, then survives its own drop/reopen cycle.
    let restored = GssSketch::read_snapshot_into(
        snapshot.as_slice(),
        StorageBackend::File { path: target.clone(), cache_pages: 8 },
    )
    .unwrap();
    assert_eq!(restored.storage_backend(), "file");
    assert_eq!(restored.stored_edges(), original.stored_edges());
    assert_eq!(restored.items_inserted(), original.items_inserted());
    for v in 0..300u64 {
        assert_eq!(restored.successors(v), original.successors(v), "successors of {v}");
    }
    drop(restored);
    let reopened = GssSketch::open_file(&target, 8).unwrap();
    assert_eq!(reopened.stored_edges(), original.stored_edges());
    drop(reopened);
    std::fs::remove_file(&target).ok();
    std::fs::remove_dir(&dir).ok();
}

#[test]
fn a_dense_precursor_query_reads_each_page_of_a_row_once() {
    let dir = temp_dir();
    let path = dir.join("dense-precursor.gss");
    // Width 360, l = 2: a row's records span 11,520 bytes, so any set of its buckets sits
    // on at most ⌈360·2·16 / 4096⌉ + 1 = 4 pages.  The cache holds the whole matrix.
    let config = GssConfig::paper_default(360);
    let mut sketch = GssSketch::with_storage(
        config,
        StorageBackend::File { path: path.clone(), cache_pages: 1024 },
    )
    .unwrap();
    let mut state = 11u64;
    let edges: Vec<StreamEdge> = (0..160_000u64)
        .map(|t| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            StreamEdge::new(state >> 40, (state >> 16) & 0xFF_FFFF, t, 1)
        })
        .collect();
    sketch.insert_batch(&edges);
    assert!(sketch.detailed_stats().matrix_load_factor >= 0.5, "every column is dense");

    let vertex = edges[0].destination;
    let warm = sketch.precursor_hashes(vertex);
    let file = sketch.room_storage().as_file().expect("file-backed");
    let before = file.page_stats().lookups;
    assert_eq!(sketch.precursor_hashes(vertex), warm);
    let lookups = file.page_stats().lookups - before;
    let row_pages = (config.width * config.rooms * ROOM_RECORD_BYTES).div_ceil(PAGE_BYTES) + 1;
    assert!(
        lookups <= (config.width * row_pages) as u64,
        "a dense precursor query made {lookups} page lookups, bound {}",
        config.width * row_pages
    );
    drop(sketch);
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}
