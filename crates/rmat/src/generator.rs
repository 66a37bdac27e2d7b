//! The R-MAT recursive-matrix generator.
//!
//! Each edge is drawn independently: starting from the full `2^scale x
//! 2^scale` adjacency matrix, recursively descend into one of four
//! quadrants with probabilities `(a, b, c, d)` until a single cell `(u, v)`
//! remains. Skewed parameters concentrate edges on low-numbered rows,
//! yielding the power-law degree distribution the paper's representations
//! are designed around.
//!
//! Generation is deterministic for a `(params, seed)` pair and independent
//! of thread count: the edge index space is split into chunks, each chunk
//! seeded from `SplitMix64(seed, chunk_index)`.

use crate::TimedEdge;
use rayon::prelude::*;
use snap_util::rng::{SplitMix64, XorShift64};

/// Chunk granularity for parallel generation.
const GEN_CHUNK: usize = 1 << 14;

/// R-MAT shaping parameters and instance size.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Number of edges to draw.
    pub edges: usize,
    /// Quadrant probabilities; must be positive and sum to 1.
    pub a: f64,
    pub b: f64,
    pub c: f64,
    /// Timestamps are drawn uniformly from `1..=max_timestamp`
    /// (0 disables timestamps: every edge gets timestamp 0).
    pub max_timestamp: u32,
    /// Add noise to the quadrant probabilities at each recursion level, as
    /// recommended by the R-MAT authors to avoid exact self-similarity.
    pub noise: f64,
}

impl RmatParams {
    /// The paper's configuration: `a,b,c,d = 0.6, 0.15, 0.15, 0.10` and
    /// `m = edge_factor * n` edges.
    pub fn paper(scale: u32, edge_factor: usize) -> Self {
        Self {
            scale,
            edges: edge_factor << scale,
            a: 0.60,
            b: 0.15,
            c: 0.15,
            max_timestamp: 100,
            noise: 0.0,
        }
    }

    /// Number of vertices, `2^scale`.
    pub fn vertices(&self) -> usize {
        1usize << self.scale
    }

    /// The implied `d` parameter.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// Overrides the timestamp range.
    pub fn with_max_timestamp(mut self, t: u32) -> Self {
        self.max_timestamp = t;
        self
    }

    fn validate(&self) {
        assert!(self.scale >= 1 && self.scale <= 31, "scale out of range");
        assert!(self.a > 0.0 && self.b > 0.0 && self.c > 0.0 && self.d() > 0.0);
        let sum = self.a + self.b + self.c + self.d();
        assert!((sum - 1.0).abs() < 1e-9, "probabilities must sum to 1");
    }
}

/// A seeded R-MAT generator.
#[derive(Clone, Debug)]
pub struct Rmat {
    params: RmatParams,
    seed: u64,
}

impl Rmat {
    pub fn new(params: RmatParams, seed: u64) -> Self {
        params.validate();
        Self { params, seed }
    }

    pub fn params(&self) -> &RmatParams {
        &self.params
    }

    /// Draws one edge with the given generator.
    fn draw_edge(&self, rng: &mut XorShift64) -> TimedEdge {
        let p = &self.params;
        let mut u = 0u32;
        let mut v = 0u32;
        for _ in 0..p.scale {
            u <<= 1;
            v <<= 1;
            let (mut a, mut b, mut c) = (p.a, p.b, p.c);
            if p.noise > 0.0 {
                // Symmetric multiplicative noise, renormalized.
                let na = a * (1.0 + p.noise * (rng.next_f64() - 0.5));
                let nb = b * (1.0 + p.noise * (rng.next_f64() - 0.5));
                let nc = c * (1.0 + p.noise * (rng.next_f64() - 0.5));
                let nd = p.d() * (1.0 + p.noise * (rng.next_f64() - 0.5));
                let s = na + nb + nc + nd;
                a = na / s;
                b = nb / s;
                c = nc / s;
            }
            let r = rng.next_f64();
            if r < a {
                // top-left: no bits set
            } else if r < a + b {
                v |= 1;
            } else if r < a + b + c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        let timestamp = if p.max_timestamp == 0 {
            0
        } else {
            rng.next_bounded(p.max_timestamp as u64) as u32 + 1
        };
        TimedEdge { u, v, timestamp }
    }

    /// Generates the full edge list sequentially (reference path; also used
    /// for small instances).
    pub fn edges_sequential(&self) -> Vec<TimedEdge> {
        let mut out = Vec::with_capacity(self.params.edges);
        let mut seeder = SplitMix64::new(self.seed);
        let mut chunk_seeds = Vec::new();
        let nchunks = self.params.edges.div_ceil(GEN_CHUNK);
        for _ in 0..nchunks {
            chunk_seeds.push(seeder.next());
        }
        for (ci, &cs) in chunk_seeds.iter().enumerate() {
            let lo = ci * GEN_CHUNK;
            let hi = ((ci + 1) * GEN_CHUNK).min(self.params.edges);
            let mut rng = XorShift64::new(cs);
            for _ in lo..hi {
                out.push(self.draw_edge(&mut rng));
            }
        }
        out
    }

    /// Generates the full edge list in parallel. Output is identical to
    /// [`Rmat::edges_sequential`] regardless of thread count.
    pub fn edges(&self) -> Vec<TimedEdge> {
        let m = self.params.edges;
        let nchunks = m.div_ceil(GEN_CHUNK);
        let mut seeder = SplitMix64::new(self.seed);
        let chunk_seeds: Vec<u64> = (0..nchunks).map(|_| seeder.next()).collect();
        let mut out: Vec<TimedEdge> = Vec::with_capacity(m);
        // SAFETY: every slot is written exactly once by the scatter below.
        #[allow(clippy::uninit_vec)]
        unsafe {
            out.set_len(m);
        }
        out.par_chunks_mut(GEN_CHUNK)
            .zip(chunk_seeds.par_iter())
            .for_each(|(chunk, &cs)| {
                let mut rng = XorShift64::new(cs);
                for slot in chunk.iter_mut() {
                    *slot = self.draw_edge(&mut rng);
                }
            });
        out
    }

    /// Out-degree of every vertex in an edge list.
    pub fn out_degrees(edges: &[TimedEdge], n: usize) -> Vec<u32> {
        let mut deg = vec![0u32; n];
        for e in edges {
            deg[e.u as usize] += 1;
        }
        deg
    }

    /// Undirected degree (counting both endpoints) of every vertex.
    pub fn undirected_degrees(edges: &[TimedEdge], n: usize) -> Vec<u32> {
        let mut deg = vec![0u32; n];
        for e in edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        deg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Rmat {
        Rmat::new(RmatParams::paper(10, 8), 42)
    }

    #[test]
    fn endpoint_ranges_respect_scale() {
        let g = small();
        let n = g.params().vertices() as u32;
        for e in g.edges() {
            assert!(e.u < n && e.v < n);
        }
    }

    #[test]
    fn edge_count_matches_params() {
        let g = small();
        assert_eq!(g.edges().len(), 8 << 10);
    }

    #[test]
    fn parallel_equals_sequential() {
        let g = small();
        assert_eq!(g.edges(), g.edges_sequential());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Rmat::new(RmatParams::paper(8, 8), 7).edges();
        let b = Rmat::new(RmatParams::paper(8, 8), 7).edges();
        let c = Rmat::new(RmatParams::paper(8, 8), 8).edges();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn timestamps_within_configured_range() {
        let g = Rmat::new(RmatParams::paper(8, 8).with_max_timestamp(100), 3);
        for e in g.edges() {
            assert!((1..=100).contains(&e.timestamp));
        }
    }

    #[test]
    fn zero_max_timestamp_disables_labels() {
        let g = Rmat::new(RmatParams::paper(8, 4).with_max_timestamp(0), 3);
        assert!(g.edges().iter().all(|e| e.timestamp == 0));
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // The defining property the paper exploits: with a = 0.6 the maximum
        // out-degree is far above the mean (O(n^0.6) vs m/n).
        let g = Rmat::new(RmatParams::paper(12, 10), 1);
        let edges = g.edges();
        let deg = Rmat::out_degrees(&edges, g.params().vertices());
        let mean = edges.len() as f64 / deg.len() as f64;
        let max = *deg.iter().max().unwrap() as f64;
        assert!(
            max > 8.0 * mean,
            "max degree {max} should dwarf mean {mean} for skewed R-MAT"
        );
    }

    #[test]
    fn uniform_probabilities_are_not_skewed() {
        // Erdos-Renyi-like control: a=b=c=d=0.25 must not produce the
        // heavy skew of the paper's parameters.
        let p = RmatParams {
            scale: 12,
            edges: 10 << 12,
            a: 0.25,
            b: 0.25,
            c: 0.25,
            max_timestamp: 10,
            noise: 0.0,
        };
        let g = Rmat::new(p, 1);
        let deg = Rmat::out_degrees(&g.edges(), p.vertices());
        let mean = (10 << 12) as f64 / p.vertices() as f64;
        let max = *deg.iter().max().unwrap() as f64;
        assert!(max < 8.0 * mean, "uniform R-MAT should stay near-binomial");
    }

    #[test]
    fn noise_preserves_validity() {
        let mut p = RmatParams::paper(8, 8);
        p.noise = 0.1;
        let g = Rmat::new(p, 5);
        let n = p.vertices() as u32;
        let edges = g.edges();
        assert_eq!(edges.len(), p.edges);
        assert!(edges.iter().all(|e| e.u < n && e.v < n));
    }

    #[test]
    fn undirected_degrees_count_both_endpoints() {
        let edges = vec![TimedEdge::new(0, 1, 1), TimedEdge::new(1, 2, 1)];
        let deg = Rmat::undirected_degrees(&edges, 3);
        assert_eq!(deg, vec![1, 2, 1]);
    }

    #[test]
    #[should_panic]
    fn invalid_probabilities_rejected() {
        let p = RmatParams {
            scale: 4,
            edges: 16,
            a: 0.9,
            b: 0.2,
            c: 0.2,
            max_timestamp: 1,
            noise: 0.0,
        };
        let _ = Rmat::new(p, 0);
    }
}
