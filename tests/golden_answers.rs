//! Golden-answer digest: the answers GSS gives are pinned to one hex constant.
//!
//! Fixed-seed Zipf streams run through four deployments — an in-memory [`GssSketch`], a
//! file-backed one, an in-memory [`ShardedGss`] with four shards and a file-backed one
//! with four shards and a page cache of a few pages — and every edge, successor and
//! precursor answer they give is folded into a single FNV-1a digest.
//!
//! A refactor that must not change behaviour (storage plumbing, durability, construction
//! paths) leaves [`GOLDEN_DIGEST`] byte-identical.  A change that legitimately alters
//! answers (hashing, placement, sampling) updates the constant and says why.
//!
//! The stream generator, the PRNG and the hash live in this file so the digest depends
//! only on the sketch, not on dataset-crate internals.

use gss::prelude::*;
use gss_core::StorageBackend;
use std::path::{Path, PathBuf};

/// The pinned digest of every answer below.
const GOLDEN_DIGEST: &str = "6287eb1e0c444215";

/// Vertex universe of each stream (ranks of the Zipf law).
const VERTICES: usize = 1500;
/// Stream items per seed.
const ITEMS: usize = 10_000;
/// Successors and precursors are asked of every `NEIGHBOUR_STEP`-th rank (rank 0, the
/// heaviest vertex, included): a file-backed precursor query with a tiny cache is the
/// slowest answer here, and a fifth of the universe covers heavy and light vertices.
const NEIGHBOUR_STEP: usize = 5;
/// Matrix width of every sketch: small enough that rooms run out and the leftover
/// buffer takes spills.
const WIDTH: usize = 40;
/// Shards of the sharded deployments.
const SHARDS: usize = 4;
/// Page-cache size of the file-backed sharded deployment: far below a shard's matrix,
/// so queries and ingest fault pages in and write dirty ones back.
const TINY_CACHE_PAGES: usize = 3;
/// Stream seeds.
const SEEDS: [u64; 3] = [0x601D, 0xA11CE, 0x5EED_2019];

/// SplitMix64: a small, fixed PRNG.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// 64-bit FNV-1a over everything written to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn edge(&mut self, answer: Option<Weight>) {
        match answer {
            None => self.bytes(&[0]),
            Some(weight) => {
                self.bytes(&[1]);
                self.bytes(&weight.to_le_bytes());
            }
        }
    }

    fn list(&mut self, mut answer: Vec<VertexId>) {
        answer.sort_unstable();
        self.u64(answer.len() as u64);
        for vertex in answer {
            self.u64(vertex);
        }
    }
}

/// A Zipf(1) stream over `VERTICES` ranks: sources and destinations are drawn
/// independently, weights are 1..=4.  The CDF uses only division and addition, so it
/// is bit-identical on every IEEE-754 platform.
fn zipf_stream(seed: u64) -> Vec<StreamEdge> {
    let mut cdf = Vec::with_capacity(VERTICES);
    let mut total = 0.0f64;
    for rank in 1..=VERTICES {
        total += 1.0 / rank as f64;
        cdf.push(total);
    }
    let mut rng = SplitMix(seed);
    let draw = |rng: &mut SplitMix| {
        let target = rng.unit() * total;
        let rank = cdf.partition_point(|&c| c <= target).min(VERTICES - 1);
        vertex_id(seed, rank)
    };
    (0..ITEMS as u64)
        .map(|t| {
            let source = draw(&mut rng);
            let destination = draw(&mut rng);
            let weight = (rng.next() % 4) as Weight + 1;
            StreamEdge::new(source, destination, t, weight)
        })
        .collect()
}

/// Spreads ranks over the id space so node hashes see unrelated ids per seed.
fn vertex_id(seed: u64, rank: usize) -> VertexId {
    (rank as u64).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ seed
}

/// Folds every answer for `seed`'s stream into a per-deployment digest: each stream
/// edge, as many random vertex pairs (mostly absent edges), and the successors and
/// precursors of every [`NEIGHBOUR_STEP`]-th rank.
fn digest_answers(seed: u64, stream: &[StreamEdge], sketch: &dyn SummaryRead) -> u64 {
    let mut hash = Fnv::new();
    for item in stream {
        hash.edge(sketch.edge_weight(item.source, item.destination));
    }
    let mut rng = SplitMix(seed ^ 0x00FA_15E0);
    for _ in 0..stream.len() {
        let source = vertex_id(seed, (rng.next() % VERTICES as u64) as usize);
        let destination = vertex_id(seed, (rng.next() % VERTICES as u64) as usize);
        hash.edge(sketch.edge_weight(source, destination));
    }
    for rank in (0..VERTICES).step_by(NEIGHBOUR_STEP) {
        let vertex = vertex_id(seed, rank);
        hash.list(sketch.successors(vertex));
        hash.list(sketch.precursors(vertex));
    }
    hash.0
}

/// Ingests `stream` half item by item and half in batches, so both write paths count.
fn ingest_single(sketch: &mut GssSketch, stream: &[StreamEdge]) {
    let (singles, batched) = stream.split_at(stream.len() / 2);
    for item in singles {
        sketch.insert(item.source, item.destination, item.weight);
    }
    for batch in batched.chunks(512) {
        sketch.insert_batch(batch);
    }
}

/// [`ingest_single`] for a sharded handle.
fn ingest_sharded(sketch: &ShardedGss, stream: &[StreamEdge]) {
    let (singles, batched) = stream.split_at(stream.len() / 2);
    for item in singles {
        sketch.insert(item.source, item.destination, item.weight);
    }
    for batch in batched.chunks(512) {
        sketch.insert_batch(batch);
    }
}

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("gss-golden-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn answers_match_the_pinned_digest() {
    let mut total = Fnv::new();
    for seed in SEEDS {
        let stream = zipf_stream(seed);
        let scratch = Scratch::new(&format!("{seed:x}"));
        let builder = || GssSketch::builder().width(WIDTH).fingerprint_bits(12);

        let mut memory = builder().build().unwrap();
        ingest_single(&mut memory, &stream);
        let memory_digest = digest_answers(seed, &stream, &memory);

        let mut file = builder().storage_file(scratch.path().join("single.gss")).build().unwrap();
        ingest_single(&mut file, &stream);
        let file_digest = digest_answers(seed, &stream, &file);
        drop(file);

        let sharded = builder().build_sharded(SHARDS).unwrap();
        ingest_sharded(&sharded, &stream);
        let sharded_digest = digest_answers(seed, &stream, &sharded);

        let tiny_cache = StorageBackend::File {
            path: scratch.path().join("sharded.gss"),
            cache_pages: TINY_CACHE_PAGES,
        };
        let sharded_file = builder().storage(tiny_cache).build_sharded(SHARDS).unwrap();
        ingest_sharded(&sharded_file, &stream);
        let sharded_file_digest = digest_answers(seed, &stream, &sharded_file);
        drop(sharded_file);

        // The storage backend is unobservable, so each pair must already agree.
        assert_eq!(memory_digest, file_digest, "seed {seed:#x}: memory vs file sketch");
        assert_eq!(
            sharded_digest, sharded_file_digest,
            "seed {seed:#x}: memory vs file sharded sketch"
        );
        for digest in [memory_digest, file_digest, sharded_digest, sharded_file_digest] {
            total.u64(digest);
        }
    }
    assert_eq!(format!("{:016x}", total.0), GOLDEN_DIGEST, "golden answers changed");
}
