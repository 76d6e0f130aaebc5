//! Workload inputs, all derived from the run's `--seed`: the graph, the
//! drain request stream, the serving mix and the update batches. The
//! program under test only ever sees these generated inputs.

use flexiwalker::prelude::*;
use flexiwalker::rng::SplitMix64;
use std::sync::Arc;

/// R-MAT scale of the drain workloads' graph (2^17 nodes).
pub const DRAIN_SCALE: u32 = 17;
/// R-MAT scale of the serving graph (2^15 nodes): small enough that a
/// copy-on-write update costs a few walk requests, not a backlog.
pub const SERVE_SCALE: u32 = 15;
/// Edges per node of the generated graph.
pub const EDGES_PER_NODE: usize = 8;
/// Requests in one drain pass.
pub const REQUESTS: usize = 16;
/// Walks (start nodes) per drain request.
pub const QUERIES: usize = 256;
/// Walk length of every request.
pub const STEPS: usize = 20;
/// Walks per serving request.
pub const SERVE_QUERIES: usize = 256;
/// Updates per update batch.
pub const UPDATE_BATCH: usize = 8;
/// Walkers of the drain stream, alternating request by request.
pub const DRAIN_WALKERS: [&str; 2] = ["node2vec", "sopr"];
/// Walkers of the serving mix, cycling request by request.
pub const SERVE_WALKERS: [&str; 3] = ["node2vec", "sopr", "uniform"];
/// Start nodes of each walker's warm request in set-up.
pub const WARM_QUERIES: usize = 64;

/// Independent generator streams derived from one workload seed.
fn stream_rng(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The seed every walk request carries (its Philox key).
pub fn walk_seed(seed: u64) -> u64 {
    stream_rng(seed, 1).next()
}

/// A workload graph: a skewed SOCIAL R-MAT graph with `U[1, 5)` edge
/// weights.
pub fn graph(seed: u64, scale: u32) -> Csr {
    let nodes = 1usize << scale;
    let csr = gen::rmat(
        scale,
        nodes * EDGES_PER_NODE,
        gen::RmatParams::SOCIAL,
        stream_rng(seed, 2).next(),
    );
    WeightModel::UniformReal.apply(csr, stream_rng(seed, 3).next())
}

/// `n` start nodes drawn uniformly from `nodes`.
pub fn queries(rng: &mut SplitMix64, n: usize, nodes: usize) -> Arc<[NodeId]> {
    (0..n)
        .map(|_| rng.bounded(nodes as u64) as NodeId)
        .collect()
}

/// One drain pass: `(walker, start nodes)` per request.
pub type Stream = Vec<(&'static str, Arc<[NodeId]>)>;

/// The requests of drain pass `pass` (identical for every drain
/// workload). Each pass draws fresh start nodes: walk cost is heavy
/// tailed in the start node (a hub start scans thousands of edges), so a
/// run averages over many start sets instead of resting on one.
pub fn drain_stream(seed: u64, pass: u64, nodes: usize) -> Stream {
    let key = stream_rng(seed, 4).next() ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut rng = SplitMix64::new(key);
    (0..REQUESTS)
        .map(|r| (DRAIN_WALKERS[r % 2], queries(&mut rng, QUERIES, nodes)))
        .collect()
}

/// Generator of the serving mix's walk requests and update batches.
pub struct Mix {
    rng: SplitMix64,
    nodes: usize,
    edges: usize,
}

impl Mix {
    /// The mix over a graph of `nodes` nodes and `edges` edges.
    pub fn new(seed: u64, stream: u64, nodes: usize, edges: usize) -> Self {
        Self {
            rng: stream_rng(seed, 5 + stream),
            nodes,
            edges,
        }
    }

    /// Start nodes of the next serving request.
    pub fn serve_queries(&mut self) -> Arc<[NodeId]> {
        queries(&mut self.rng, SERVE_QUERIES, self.nodes)
    }

    /// The next update batch: edge insertions (`structural`) or weight
    /// overwrites of edges that exist in every later epoch (insertions
    /// only ever add edges).
    pub fn batch(&mut self, structural: bool) -> Vec<GraphUpdate> {
        let rng = &mut self.rng;
        let weight = |rng: &mut SplitMix64| 1.0 + (rng.bounded(4096) as f32) / 1024.0;
        (0..UPDATE_BATCH)
            .map(|_| {
                if structural {
                    GraphUpdate::AddEdge {
                        src: rng.bounded(self.nodes as u64) as NodeId,
                        dst: rng.bounded(self.nodes as u64) as NodeId,
                        weight: weight(rng),
                        label: 0,
                    }
                } else {
                    GraphUpdate::SetWeight {
                        edge: rng.bounded(self.edges as u64) as usize,
                        weight: weight(rng),
                    }
                }
            })
            .collect()
    }
}

/// FNV-1a over everything a report says about its walks: paths, step
/// count and per-sampler step tally (timing deliberately excluded).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    /// The empty digest (the FNV-1a offset basis).
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds one report in.
    pub fn report(&mut self, r: &RunReport) {
        self.word(r.steps_taken);
        for path in r.paths.iter().flatten() {
            self.word(path.len() as u64);
            for &v in path {
                self.word(u64::from(v));
            }
        }
        let mut tally: Vec<(&str, u64)> = r.sampler_steps.iter().collect();
        tally.sort_unstable();
        for (id, n) in tally {
            for b in id.bytes() {
                self.word(u64::from(b));
            }
            self.word(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_is_the_only_source_of_randomness() {
        let (a, b, c) = (graph(7, 12), graph(7, 12), graph(8, 12));
        assert_eq!(a.col_idx(), b.col_idx());
        assert_eq!(a.row_ptr(), b.row_ptr());
        assert_ne!(a.col_idx(), c.col_idx());
        assert_eq!(drain_stream(7, 0, 100), drain_stream(7, 0, 100));
        assert_ne!(drain_stream(7, 0, 100), drain_stream(8, 0, 100));
        assert_ne!(drain_stream(7, 0, 100), drain_stream(7, 1, 100));
        let mut m1 = Mix::new(7, 0, 100, 500);
        let mut m2 = Mix::new(7, 0, 100, 500);
        assert_eq!(m1.batch(true), m2.batch(true));
        assert_eq!(m1.serve_queries(), m2.serve_queries());
        assert_eq!(walk_seed(7), walk_seed(7));
        assert_ne!(walk_seed(7), walk_seed(8));
    }
}
