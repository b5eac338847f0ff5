//! Streaming power-law generation: adjacency lists one vertex at a time.
//!
//! The in-memory generators in [`crate::generators`] materialize a full
//! `EdgeList`, which caps graph size at available RAM (16 bytes/edge). For
//! the out-of-core experiments we need graphs *larger* than what we want to
//! hold in memory, produced directly in the canonical `(src, dst)`-sorted
//! order the `gp-store` builder consumes. [`PowerLawStream`] does that with
//! O(max degree) working memory:
//!
//! * **Out-degrees** follow a Zipf-like rank law. With
//!   `F(x) = (x^(1-α) - 1) / (n^(1-α) - 1)` (the normalized CDF of
//!   `x^(-α)`), vertex `v` gets `d_v = floor(E·F(v+1)) - floor(E·F(v))`
//!   edges — the telescoping floors make the degrees sum to exactly `E`
//!   with no rounding drift, and `d_v ∝ v^(-α)` gives a degree
//!   distribution with power-law exponent `1 + 1/α`.
//! * **In-degrees** are skewed by sampling `dst = floor(n · u^β)` for
//!   uniform `u`: larger `β` concentrates targets on low ids, creating
//!   in-degree hubs like the head of a web crawl.
//!
//! Determinism: the per-vertex RNG is re-seeded from `(seed, v)`, so record
//! `v` is reproducible regardless of how much of the stream was consumed.

use gp_core::{Rng, Splitmix64, VertexId};

/// Parameters for [`PowerLawStream`].
#[derive(Debug, Clone, Copy)]
pub struct PowerLawStreamParams {
    /// Vertex-space size `n`. Must be ≥ 2 when `num_edges > 0`.
    pub num_vertices: u64,
    /// Exact total edge count `E`.
    pub num_edges: u64,
    /// Out-degree rank exponent `α ∈ (0, 1)`; the resulting degree
    /// distribution has exponent `1 + 1/α` (0.6 ⇒ ≈ 2.7, the web-graph
    /// regime).
    pub alpha: f64,
    /// In-target skew `β ≥ 1`; 1.0 = uniform targets, larger values pile
    /// in-edges onto low-id hubs.
    pub beta: f64,
}

impl Default for PowerLawStreamParams {
    fn default() -> Self {
        PowerLawStreamParams {
            num_vertices: 1 << 20,
            num_edges: 16 << 20,
            alpha: 0.6,
            beta: 2.0,
        }
    }
}

/// Vertex-at-a-time power-law graph stream in canonical store order.
pub struct PowerLawStream {
    params: PowerLawStreamParams,
    seed: u64,
    next_vertex: u64,
    /// `floor(E · F(next_vertex))` — carried so each step is one CDF eval.
    cum: u64,
}

impl PowerLawStream {
    /// New stream; panics on out-of-range parameters.
    pub fn new(params: PowerLawStreamParams, seed: u64) -> Self {
        assert!(
            params.alpha > 0.0 && params.alpha < 1.0,
            "alpha must be in (0, 1), got {}",
            params.alpha
        );
        assert!(params.beta >= 1.0, "beta must be >= 1, got {}", params.beta);
        assert!(
            params.num_edges == 0 || params.num_vertices >= 2,
            "need at least 2 vertices to avoid self-loops"
        );
        PowerLawStream {
            params,
            seed,
            next_vertex: 0,
            cum: 0,
        }
    }

    /// Declared vertex count.
    pub fn num_vertices(&self) -> u64 {
        self.params.num_vertices
    }

    /// Declared (exact) edge count.
    pub fn num_edges(&self) -> u64 {
        self.params.num_edges
    }

    /// `floor(E · F(x))` for the normalized rank CDF `F`.
    fn cum_degree(&self, x: u64) -> u64 {
        let n = self.params.num_vertices as f64;
        let e = self.params.num_edges as f64;
        let one_minus_a = 1.0 - self.params.alpha;
        let f = ((x as f64).powf(one_minus_a) - 1.0) / (n.powf(one_minus_a) - 1.0);
        // Clamp against floating-point overshoot; F(n) must be exactly 1.
        (e * f.clamp(0.0, 1.0)).floor() as u64
    }

    /// Produce the next vertex's sorted adjacency into `targets`. Returns
    /// the vertex id, or `None` once all `num_vertices` records are out.
    pub fn next_vertex(&mut self, targets: &mut Vec<VertexId>) -> Option<VertexId> {
        if self.next_vertex >= self.params.num_vertices {
            return None;
        }
        let v = self.next_vertex;
        self.next_vertex += 1;
        let cum_next = if self.next_vertex == self.params.num_vertices {
            self.params.num_edges // force exact total regardless of fp error
        } else {
            self.cum_degree(self.next_vertex)
        };
        let degree = cum_next - self.cum;
        self.cum = cum_next;

        targets.clear();
        let n = self.params.num_vertices;
        let mut rng = Splitmix64::new(self.seed ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for _ in 0..degree {
            let u = rng.next_f64();
            let mut dst = ((n as f64) * u.powf(self.params.beta)) as u64;
            dst = dst.min(n - 1);
            if dst == v {
                dst = (dst + 1) % n; // no self-loops
            }
            targets.push(VertexId(dst));
        }
        targets.sort_unstable();
        Some(VertexId(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(params: PowerLawStreamParams, seed: u64) -> Vec<(u64, Vec<VertexId>)> {
        let mut s = PowerLawStream::new(params, seed);
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while let Some(v) = s.next_vertex(&mut buf) {
            out.push((v.0, buf.clone()));
        }
        out
    }

    #[test]
    fn edge_total_is_exact() {
        for edges in [0u64, 1, 999, 10_000, 123_457] {
            let params = PowerLawStreamParams {
                num_vertices: 2_000,
                num_edges: edges,
                ..Default::default()
            };
            let mut s = PowerLawStream::new(params, 7);
            let mut buf = Vec::new();
            let mut total = 0u64;
            while s.next_vertex(&mut buf).is_some() {
                total += buf.len() as u64;
            }
            assert_eq!(total, edges);
        }
    }

    #[test]
    fn degrees_decay_with_rank() {
        let recs = drain(
            PowerLawStreamParams {
                num_vertices: 10_000,
                num_edges: 100_000,
                ..Default::default()
            },
            3,
        );
        let head: u64 = recs[..100].iter().map(|(_, t)| t.len() as u64).sum();
        let tail: u64 = recs[9_900..].iter().map(|(_, t)| t.len() as u64).sum();
        assert!(
            head > 10 * tail.max(1),
            "first 100 ranks ({head}) should dwarf last 100 ({tail})"
        );
    }

    #[test]
    fn targets_are_sorted_in_range_and_loop_free() {
        let recs = drain(
            PowerLawStreamParams {
                num_vertices: 500,
                num_edges: 5_000,
                beta: 2.5,
                ..Default::default()
            },
            11,
        );
        for (v, targets) in &recs {
            for w in targets.windows(2) {
                assert!(w[0] <= w[1], "v{v} targets unsorted");
            }
            for t in targets {
                assert!(t.0 < 500);
                assert_ne!(t.0, *v, "self-loop at v{v}");
            }
        }
    }

    #[test]
    fn beta_skews_targets_toward_low_ids() {
        let uniform = drain(
            PowerLawStreamParams {
                num_vertices: 4_000,
                num_edges: 40_000,
                beta: 1.0,
                ..Default::default()
            },
            5,
        );
        let skewed = drain(
            PowerLawStreamParams {
                num_vertices: 4_000,
                num_edges: 40_000,
                beta: 3.0,
                ..Default::default()
            },
            5,
        );
        let low_mass = |recs: &[(u64, Vec<VertexId>)]| {
            recs.iter()
                .flat_map(|(_, t)| t.iter())
                .filter(|t| t.0 < 400)
                .count()
        };
        assert!(low_mass(&skewed) > 3 * low_mass(&uniform));
    }

    #[test]
    fn stream_is_deterministic() {
        let params = PowerLawStreamParams {
            num_vertices: 1_000,
            num_edges: 8_000,
            ..Default::default()
        };
        assert_eq!(drain(params, 42), drain(params, 42));
        assert_ne!(drain(params, 42), drain(params, 43));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_out_of_range_rejected() {
        PowerLawStream::new(
            PowerLawStreamParams {
                alpha: 1.0,
                ..Default::default()
            },
            0,
        );
    }
}
