//! Seeded inputs and the exact oracle every answer is checked against.
//!
//! Streams are Zipf-distributed edge streams (source and destination drawn
//! independently), so a few hub vertices carry most items and most edges repeat. Query
//! lists draw vertices uniformly over the stream's distinct vertices; half of the edge
//! queries name a true edge and half a random vertex pair.

use gss_datasets::{Xoshiro256, ZipfSampler};
use gss_graph::{AdjacencyListGraph, StreamEdge, SummaryRead, SummaryWrite};

/// Derives an independent generator for one purpose (`salt`) from the run's seed.
pub fn rng(seed: u64, salt: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// Maps a Zipf rank to a vertex id. The mapping is the same for every seed, so the hub
/// vertices, and the shards they route to, stay put; the seed draws the stream.
fn vertex_id(rank: usize) -> u64 {
    let mut z = (rank as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A Zipf edge-stream generator; successive [`take`](Self::take) calls continue one
/// stream, so a preload and the items ingested after it come from the same source.
pub struct StreamGen {
    sampler: ZipfSampler,
    rng: Xoshiro256,
    next_timestamp: u64,
}

impl StreamGen {
    pub fn new(seed: u64, vertices: usize, exponent: f64) -> Self {
        Self {
            sampler: ZipfSampler::new(vertices, exponent),
            rng: rng(seed, 0x5742_4541_4D00),
            next_timestamp: 0,
        }
    }

    /// The next `count` unit-weight items of the stream.
    pub fn take(&mut self, count: usize) -> Vec<StreamEdge> {
        (0..count)
            .map(|_| {
                let source = vertex_id(self.sampler.sample(&mut self.rng));
                let destination = vertex_id(self.sampler.sample(&mut self.rng));
                self.next_timestamp += 1;
                StreamEdge::new(source, destination, self.next_timestamp, 1)
            })
            .collect()
    }
}

/// The exact graph of the items fed to the program, with sorted vertex and edge lists
/// for drawing queries.
pub struct Oracle {
    graph: AdjacencyListGraph,
}

impl Oracle {
    pub fn new() -> Self {
        Self { graph: AdjacencyListGraph::new() }
    }

    pub fn add(&mut self, items: &[StreamEdge]) {
        for item in items {
            self.graph.insert(item.source, item.destination, item.weight);
        }
    }

    pub fn weight(&self, source: u64, destination: u64) -> i64 {
        self.graph.edge_weight(source, destination).unwrap_or(0)
    }

    pub fn successors(&self, vertex: u64) -> Vec<u64> {
        self.graph.successors(vertex)
    }

    pub fn precursors(&self, vertex: u64) -> Vec<u64> {
        self.graph.precursors(vertex)
    }

    /// Distinct vertices, sorted (so query draws repeat for a seed).
    pub fn vertices(&self) -> Vec<u64> {
        self.graph.vertices()
    }

    /// Distinct edges, sorted.
    pub fn edges(&self) -> Vec<(u64, u64)> {
        let mut edges: Vec<(u64, u64)> =
            self.graph.edges().map(|(key, _)| (key.source, key.destination)).collect();
        edges.sort_unstable();
        edges
    }
}

/// What one query asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    Edge { source: u64, destination: u64 },
    Successors(u64),
    Precursors(u64),
}

/// The three query verbs, indexing per-verb arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Edge = 0,
    Successor = 1,
    Precursor = 2,
}

impl Verb {
    pub const ALL: [Verb; 3] = [Verb::Edge, Verb::Successor, Verb::Precursor];

    pub fn name(self) -> &'static str {
        match self {
            Verb::Edge => "edge",
            Verb::Successor => "successor",
            Verb::Precursor => "precursor",
        }
    }
}

impl Query {
    pub fn verb(&self) -> Verb {
        match self {
            Query::Edge { .. } => Verb::Edge,
            Query::Successors(_) => Verb::Successor,
            Query::Precursors(_) => Verb::Precursor,
        }
    }
}

/// The fixed query mix: out of every eight queries, four edge, two successor and two
/// precursor queries.
const MIX: [Verb; 8] = [
    Verb::Edge,
    Verb::Successor,
    Verb::Edge,
    Verb::Precursor,
    Verb::Edge,
    Verb::Successor,
    Verb::Edge,
    Verb::Precursor,
];

/// `count` queries in the fixed mix over the oracle's vertices and edges. Every other
/// edge query names a true edge; the rest name a uniform random vertex pair.
pub fn queries(seed: u64, oracle: &Oracle, count: usize) -> Vec<Query> {
    let vertices = oracle.vertices();
    let edges = oracle.edges();
    let mut rng = rng(seed, 0x5155_4552_5900);
    let mut edge_queries = 0usize;
    (0..count)
        .map(|i| {
            let vertex = |rng: &mut Xoshiro256| vertices[rng.next_index(vertices.len())];
            match MIX[i % MIX.len()] {
                Verb::Edge => {
                    edge_queries += 1;
                    if edge_queries % 2 == 1 {
                        let (source, destination) = edges[rng.next_index(edges.len())];
                        Query::Edge { source, destination }
                    } else {
                        Query::Edge { source: vertex(&mut rng), destination: vertex(&mut rng) }
                    }
                }
                Verb::Successor => Query::Successors(vertex(&mut rng)),
                Verb::Precursor => Query::Precursors(vertex(&mut rng)),
            }
        })
        .collect()
}

/// What the program answered.
#[derive(Debug)]
pub enum Answer {
    Edge(Option<i64>),
    Vertices(Vec<u64>),
}

/// Accumulates answer checks and the accuracy metrics drawn from them.
#[derive(Debug, Default)]
pub struct Checker {
    /// Answers that broke GSS's one-sided error guarantee.
    pub violations: u64,
    first_violation: Option<String>,
    edge_ratio_sum: f64,
    edge_true: u64,
    precision_sum: [f64; 3],
    precision_n: [u64; 3],
}

impl Checker {
    /// Checks one answer against the exact answers `truth`.
    pub fn check(&mut self, query: &Query, answer: &Answer, truth: &Truth) {
        match (query, answer) {
            (Query::Edge { source, destination }, Answer::Edge(estimate)) => {
                let exact = truth.weight(*source, *destination);
                if exact > 0 {
                    match estimate {
                        Some(estimate) if *estimate >= exact => {
                            self.edge_ratio_sum += *estimate as f64 / exact as f64;
                            self.edge_true += 1;
                        }
                        _ => self.violate(format!(
                            "edge ({source}, {destination}): answered {estimate:?}, exact {exact}"
                        )),
                    }
                }
            }
            (Query::Successors(vertex), Answer::Vertices(answer)) => {
                let exact = truth.successors(*vertex);
                self.check_set(Verb::Successor, *vertex, &exact, answer);
            }
            (Query::Precursors(vertex), Answer::Vertices(answer)) => {
                let exact = truth.precursors(*vertex);
                self.check_set(Verb::Precursor, *vertex, &exact, answer);
            }
            _ => self.violate(format!("{query:?}: answer of the wrong kind {answer:?}")),
        }
    }

    fn check_set(&mut self, verb: Verb, vertex: u64, exact: &[u64], answer: &[u64]) {
        let mut answer = answer.to_vec();
        answer.sort_unstable();
        answer.dedup();
        if let Some(missed) = exact.iter().find(|v| answer.binary_search(v).is_err()) {
            self.violate(format!("{} of {vertex}: true neighbour {missed} missing", verb.name()));
            return;
        }
        if !answer.is_empty() {
            self.precision_sum[verb as usize] += exact.len() as f64 / answer.len() as f64;
            self.precision_n[verb as usize] += 1;
        }
    }

    pub fn violate(&mut self, message: String) {
        self.violations += 1;
        self.first_violation.get_or_insert(message);
    }

    /// Takes over `other`'s violations (its accuracy figures are its own).
    pub fn absorb_violations(&mut self, other: Checker) {
        self.violations += other.violations;
        if let Some(message) = other.first_violation {
            self.first_violation.get_or_insert(message);
        }
    }

    pub fn first_violation(&self) -> Option<&str> {
        self.first_violation.as_deref()
    }

    /// Mean estimated over exact weight across true-edge answers (1 + ARE).
    pub fn edge_weight_ratio(&self) -> Option<f64> {
        (self.edge_true > 0).then(|| self.edge_ratio_sum / self.edge_true as f64)
    }

    /// Mean of |exact| / |answered| over answered neighbour sets of `verb`.
    pub fn precision(&self, verb: Verb) -> Option<f64> {
        let n = self.precision_n[verb as usize];
        (n > 0).then(|| self.precision_sum[verb as usize] / n as f64)
    }
}

/// The exact answers after a stream of `passes` whole replays of `full` followed by the
/// items in `partial` (or just `full` once, when `partial` is `None` and `passes == 1`).
pub struct Truth<'a> {
    pub full: &'a Oracle,
    pub passes: i64,
    pub partial: Option<&'a Oracle>,
}

impl<'a> Truth<'a> {
    pub fn once(oracle: &'a Oracle) -> Self {
        Self { full: oracle, passes: 1, partial: None }
    }

    fn weight(&self, source: u64, destination: u64) -> i64 {
        self.passes * self.full.weight(source, destination)
            + self.partial.map_or(0, |p| p.weight(source, destination))
    }

    fn neighbours(&self, of: impl Fn(&Oracle) -> Vec<u64>) -> Vec<u64> {
        match (self.passes, self.partial) {
            (0, Some(partial)) => of(partial),
            (0, None) => Vec::new(),
            _ => of(self.full),
        }
    }

    fn successors(&self, vertex: u64) -> Vec<u64> {
        self.neighbours(|o| o.successors(vertex))
    }

    fn precursors(&self, vertex: u64) -> Vec<u64> {
        self.neighbours(|o| o.precursors(vertex))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_and_queries_repeat_for_a_seed() {
        let a = StreamGen::new(7, 1000, 1.3).take(500);
        let b = StreamGen::new(7, 1000, 1.3).take(500);
        let c = StreamGen::new(8, 1000, 1.3).take(500);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut oracle = Oracle::new();
        oracle.add(&a);
        assert_eq!(queries(3, &oracle, 64), queries(3, &oracle, 64));
    }

    #[test]
    fn checker_flags_underestimates_and_missing_neighbours() {
        let mut oracle = Oracle::new();
        oracle.add(&[StreamEdge::new(1, 2, 1, 1), StreamEdge::new(1, 3, 2, 1)]);
        let truth = Truth::once(&oracle);
        let mut checker = Checker::default();
        let edge = Query::Edge { source: 1, destination: 2 };
        checker.check(&edge, &Answer::Edge(Some(1)), &truth);
        checker.check(&Query::Successors(1), &Answer::Vertices(vec![3, 2, 9]), &truth);
        assert_eq!(checker.violations, 0);
        assert_eq!(checker.edge_weight_ratio(), Some(1.0));
        assert!((checker.precision(Verb::Successor).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        checker.check(&edge, &Answer::Edge(None), &truth);
        checker.check(&Query::Successors(1), &Answer::Vertices(vec![2]), &truth);
        assert_eq!(checker.violations, 2);
        let doubled = Truth { full: &oracle, passes: 2, partial: None };
        checker.check(&edge, &Answer::Edge(Some(1)), &doubled);
        assert_eq!(checker.violations, 3);
    }
}
