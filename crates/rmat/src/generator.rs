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
//!
//! # The quadrant draw
//!
//! A level draws `k = next_u64() >> 11`, the 53 bits that
//! [`XorShift64::next_f64`] turns into `r = k · 2⁻⁵³`, and picks the
//! quadrant by comparing `k` with three integer thresholds instead of
//! `r` with `a`, `a + b` and `a + b + c`. The two are the same test:
//! `k < 2⁵³` converts to `f64` exactly and the scale by `2⁻⁵³` is exact,
//! so `r` *is* `k / 2⁵³`; and `x · 2⁵³` is exact for every `x` in `(0, 1]`,
//! so `r < x` holds exactly when the integer `k` is below `⌈x · 2⁵³⌉`.
//! The thresholds take `x` from the sums `a + b` and `a + b + c` rounded
//! in `f64` left to right, as the float test did. Same draws in the same
//! order and the same comparisons make the same edge list, without the
//! data-dependent branch on a 60/15/15/10 split that mispredicted at
//! every level.

use crate::TimedEdge;
use rayon::prelude::*;
use snap_util::rng::{SplitMix64, XorShift64};
use std::mem::MaybeUninit;

/// Chunk granularity for parallel generation.
const GEN_CHUNK: usize = 1 << 14;

/// `2⁵³`, the span of the 53-bit draw a level compares.
const DRAW_SPAN: f64 = (1u64 << 53) as f64;

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

/// The quadrant thresholds of a parameter set on a level's 53-bit draw
/// `k`: `k < a` exactly when `r < params.a`, `k < ab` when
/// `r < params.a + params.b`, and so on (the module doc says why).
struct Thresholds {
    a: u64,
    ab: u64,
    abc: u64,
}

impl Thresholds {
    fn new(p: &RmatParams) -> Self {
        let at = |x: f64| (x * DRAW_SPAN).ceil() as u64;
        Self {
            a: at(p.a),
            ab: at(p.a + p.b),
            abc: at(p.a + p.b + p.c),
        }
    }

    /// The `(u, v)` bits of the quadrant `k` falls in: `(0, 0)` below `a`,
    /// `(0, 1)` below `ab`, `(1, 0)` below `abc`, else `(1, 1)`. Three
    /// compares and no branch.
    fn quadrant(&self, k: u64) -> (u32, u32) {
        let ge_a = u32::from(k >= self.a);
        let ge_ab = u32::from(k >= self.ab);
        let ge_abc = u32::from(k >= self.abc);
        (ge_ab, (ge_a ^ ge_ab) | ge_abc)
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
    fn draw_edge(&self, t: &Thresholds, rng: &mut XorShift64) -> TimedEdge {
        let p = &self.params;
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..p.scale {
            let (du, dv) = t.quadrant(rng.next_u64() >> 11);
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        let timestamp = if p.max_timestamp == 0 {
            0
        } else {
            rng.next_bounded(p.max_timestamp as u64) as u32 + 1
        };
        TimedEdge { u, v, timestamp }
    }

    /// Writes every slot of `chunk` with the edges of the chunk seeded `seed`.
    fn fill_chunk(&self, t: &Thresholds, seed: u64, chunk: &mut [MaybeUninit<TimedEdge>]) {
        let mut rng = XorShift64::new(seed);
        for slot in chunk {
            slot.write(self.draw_edge(t, &mut rng));
        }
    }

    /// Generates the full edge list on the calling thread.
    pub fn edges_sequential(&self) -> Vec<TimedEdge> {
        self.generate(false)
    }

    /// Generates the full edge list in parallel. Output is identical to
    /// [`Rmat::edges_sequential`] regardless of thread count.
    pub fn edges(&self) -> Vec<TimedEdge> {
        self.generate(true)
    }

    /// Draws every chunk into one list, on the caller or across rayon's
    /// threads; the chunks, their seeds and their draws are the same.
    fn generate(&self, parallel: bool) -> Vec<TimedEdge> {
        let m = self.params.edges;
        let t = Thresholds::new(&self.params);
        let mut seeder = SplitMix64::new(self.seed);
        let seeds: Vec<u64> = (0..m.div_ceil(GEN_CHUNK)).map(|_| seeder.next()).collect();
        let mut out = Vec::with_capacity(m);
        let slots = &mut out.spare_capacity_mut()[..m];
        let fill = |(chunk, &seed): (&mut [MaybeUninit<TimedEdge>], &u64)| {
            self.fill_chunk(&t, seed, chunk)
        };
        if parallel {
            slots
                .par_chunks_mut(GEN_CHUNK)
                .zip(seeds.par_iter())
                .for_each(fill);
        } else {
            slots.chunks_mut(GEN_CHUNK).zip(&seeds).for_each(fill);
        }
        // SAFETY: `slots` is `out`'s first `m` slots cut into
        // `m.div_ceil(GEN_CHUNK)` chunks, one per seed, so the zip paired
        // every chunk, and `fill_chunk` wrote every slot of its chunk.
        // Both branches return only after every chunk is filled: a chunk
        // that panics unwinds through the join and never gets here.
        unsafe { out.set_len(m) };
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

    fn with_probabilities(scale: u32, a: f64, b: f64, c: f64) -> RmatParams {
        RmatParams {
            a,
            b,
            c,
            ..RmatParams::paper(scale, 8)
        }
    }

    /// The quadrant a float draw `r` picked before the integer
    /// thresholds: a compare chain on `a`, `a + b`, `a + b + c`.
    fn float_quadrant(p: &RmatParams, r: f64) -> (u32, u32) {
        if r < p.a {
            (0, 0)
        } else if r < p.a + p.b {
            (0, 1)
        } else if r < p.a + p.b + p.c {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    /// The edge list as the float chain drew it, chunked and seeded as
    /// `generate` is: the reference the threshold draw must equal.
    fn reference_edges(g: &Rmat) -> Vec<TimedEdge> {
        let p = g.params();
        let mut seeder = SplitMix64::new(g.seed);
        let mut out = Vec::with_capacity(p.edges);
        for lo in (0..p.edges).step_by(GEN_CHUNK) {
            let mut rng = XorShift64::new(seeder.next());
            for _ in lo..(lo + GEN_CHUNK).min(p.edges) {
                let (mut u, mut v) = (0u32, 0u32);
                for _ in 0..p.scale {
                    let (du, dv) = float_quadrant(p, rng.next_f64());
                    u = (u << 1) | du;
                    v = (v << 1) | dv;
                }
                let timestamp = if p.max_timestamp == 0 {
                    0
                } else {
                    rng.next_bounded(p.max_timestamp as u64) as u32 + 1
                };
                out.push(TimedEdge { u, v, timestamp });
            }
        }
        out
    }

    /// FNV-1a over every edge's `(u, v, timestamp)`, little-endian.
    fn fnv1a(edges: &[TimedEdge]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for e in edges {
            for word in [e.u, e.v, e.timestamp] {
                for byte in word.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn threshold_draw_equals_the_float_chain() {
        for scale in [1, 2, 7, 12, 16] {
            for (a, b, c) in [(0.60, 0.15, 0.15), (0.25, 0.25, 0.25)] {
                for max_timestamp in [0, 100] {
                    for seed in [0, 1, 42, u64::MAX] {
                        let p =
                            with_probabilities(scale, a, b, c).with_max_timestamp(max_timestamp);
                        let g = Rmat::new(p, seed);
                        let reference = reference_edges(&g);
                        let what =
                            format!("scale {scale}, {a}/{b}/{c}, ts {max_timestamp}, seed {seed}");
                        assert!(g.edges() == reference, "edges(): {what}");
                        assert!(
                            g.edges_sequential() == reference,
                            "edges_sequential(): {what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn thresholds_split_the_draw_where_the_float_compares_do() {
        // `next_f64`'s own construction of `r` from the 53-bit draw `k`.
        let r = |k: u64| k as f64 * (1.0 / (1u64 << 53) as f64);
        for (a, b, c) in [
            (0.60, 0.15, 0.15),
            (0.25, 0.25, 0.25),
            (0.57, 0.19, 0.19),
            (0.1, 0.2, 0.3),
        ] {
            let p = with_probabilities(4, a, b, c);
            let t = Thresholds::new(&p);
            for (x, th) in [(p.a, t.a), (p.a + p.b, t.ab), (p.a + p.b + p.c, t.abc)] {
                assert!(
                    r(th - 1) < x && r(th) >= x,
                    "threshold {th} of {x} is not tight"
                );
                for k in [th - 1, th] {
                    assert_eq!(t.quadrant(k), float_quadrant(&p, r(k)), "k = {k} of {x}");
                }
            }
            for k in [0, (1 << 53) - 1] {
                assert_eq!(t.quadrant(k), float_quadrant(&p, r(k)), "k = {k}");
            }
        }
    }

    #[test]
    fn paper_graphs_match_their_pinned_digests() {
        // Computed from the float-chain draw; any change to the draws, their
        // order or the chunk seeding moves them.
        for (scale, digest) in [(16, 0x5149_b90d_b79c_a226), (17, 0x50a4_bbf0_2215_b44d)] {
            let edges = Rmat::new(RmatParams::paper(scale, 8), 42).edges();
            assert_eq!(edges.len(), 8 << scale);
            assert_eq!(fnv1a(&edges), digest, "scale {scale}");
        }
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
        };
        let g = Rmat::new(p, 1);
        let deg = Rmat::out_degrees(&g.edges(), p.vertices());
        let mean = (10 << 12) as f64 / p.vertices() as f64;
        let max = *deg.iter().max().unwrap() as f64;
        assert!(max < 8.0 * mean, "uniform R-MAT should stay near-binomial");
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
        };
        let _ = Rmat::new(p, 0);
    }
}
