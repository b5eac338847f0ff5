//! Random-graph generators for the paper's three degree classes.
//!
//! All generators are deterministic given a seed and emit [`EdgeList`]s with
//! dense vertex ids. Edge streams are emitted **sorted by (source, dest)** —
//! the order the paper's real datasets have on disk (SNAP, DIMACS and LAW
//! edge lists are all source-sorted). Stream order matters: the greedy
//! streaming heuristics (Oblivious, HDRF) exploit exactly this locality, and
//! feeding them a randomly-shuffled stream would erase the road-network
//! advantage the paper measures for them (§5.4.2).

use gp_core::{Edge, EdgeList, Rng, Xoshiro256};

/// Parameters for [`road_network`].
#[derive(Debug, Clone)]
pub struct RoadNetworkParams {
    /// Grid width in junctions.
    pub width: u32,
    /// Grid height in junctions.
    pub height: u32,
    /// Probability each lattice link exists (1.0 = full grid). Dropping a few
    /// links produces the irregular blocks of a real road map.
    pub link_probability: f64,
    /// Number of long-range shortcut edges (highways) to add, as a fraction
    /// of lattice edges. Real road networks have a few.
    pub shortcut_fraction: f64,
}

impl Default for RoadNetworkParams {
    fn default() -> Self {
        RoadNetworkParams {
            width: 200,
            height: 200,
            link_probability: 0.94,
            shortcut_fraction: 0.01,
        }
    }
}

/// Generate a road-network analogue: a 2-D lattice with missing links and a
/// few long-range shortcuts. Low bounded degree (≤ 4 lattice neighbors plus
/// rare shortcuts), high diameter — the signature of road-net-CA/USA. Each
/// undirected road is emitted in both directions, as the SNAP road graphs
/// are symmetric.
///
/// ```
/// use gp_gen::{road_network, RoadNetworkParams};
/// let g = road_network(&RoadNetworkParams { width: 10, height: 10, ..Default::default() }, 1);
/// let stats = gp_core::GraphStats::compute(&g);
/// assert!(stats.max_in_degree <= 8);
/// ```
pub fn road_network(params: &RoadNetworkParams, seed: u64) -> EdgeList {
    assert!(
        params.width >= 2 && params.height >= 2,
        "grid must be at least 2x2"
    );
    let mut rng = Xoshiro256::new(seed);
    let (w, h) = (params.width as u64, params.height as u64);
    let id = |x: u64, y: u64| -> u64 { y * w + x };
    let mut edges: Vec<Edge> = Vec::new();
    let push_road = |edges: &mut Vec<Edge>, a: u64, b: u64| {
        edges.push(Edge::new(a, b));
        edges.push(Edge::new(b, a));
    };
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w && rng.next_f64() < params.link_probability {
                push_road(&mut edges, id(x, y), id(x + 1, y));
            }
            if y + 1 < h && rng.next_f64() < params.link_probability {
                push_road(&mut edges, id(x, y), id(x, y + 1));
            }
        }
    }
    let shortcuts = (edges.len() as f64 * params.shortcut_fraction) as usize;
    let n = w * h;
    for _ in 0..shortcuts {
        let a = rng.next_below(n);
        let b = rng.next_below(n);
        if a != b {
            push_road(&mut edges, a, b);
        }
    }
    edges.sort_unstable();
    EdgeList::with_vertex_count(edges, n).expect("lattice ids are in range")
}

/// Generate a Barabási–Albert preferential-attachment graph: `n` vertices,
/// each new vertex attaching `m_attach` edges to existing vertices chosen
/// proportionally to degree.
///
/// Because every vertex arrives with `m_attach` edges, there are *no*
/// vertices of degree `< m_attach`: the low-degree head is depleted, which is
/// exactly the heavy-tailed (LiveJournal/Twitter) signature of Fig 5.8.
/// Edges are directed new→old, which makes old high-degree vertices collect
/// large in-degrees like celebrity accounts.
pub fn barabasi_albert(n: u64, m_attach: u32, seed: u64) -> EdgeList {
    barabasi_albert_reciprocal(n, m_attach, 0.0, seed)
}

/// [`barabasi_albert`] with a *reciprocity* fraction: each attachment edge
/// `v -> t` is mirrored as `t -> v` with the given probability. Real social
/// networks have substantial reciprocity (~22% of Twitter follows are
/// mutual; most LiveJournal friendships are), and reciprocity is what
/// separates canonical Random from Asymmetric Random (§8.2.2): without any
/// reciprocal pairs the two strategies are statistically identical.
pub fn barabasi_albert_reciprocal(n: u64, m_attach: u32, reciprocity: f64, seed: u64) -> EdgeList {
    assert!(m_attach >= 1, "attachment degree must be >= 1");
    assert!((0.0..=1.0).contains(&reciprocity), "reciprocity in [0,1]");
    assert!(
        n > m_attach as u64,
        "need more vertices than the attachment degree"
    );
    let mut rng = Xoshiro256::new(seed);
    let m = m_attach as usize;
    // `targets[i]` appears once per degree unit — classic BA urn.
    let mut urn: Vec<u64> = Vec::with_capacity(2 * m * n as usize);
    let mut edges: Vec<Edge> = Vec::with_capacity(m * n as usize);
    // Seed clique-ish core: vertex i (i < m_attach) chains to i+1.
    for i in 0..m as u64 {
        let j = (i + 1) % (m as u64 + 1);
        edges.push(Edge::new(i, j));
        urn.push(i);
        urn.push(j);
    }
    for v in (m as u64 + 1)..n {
        let mut chosen: Vec<u64> = Vec::with_capacity(m);
        let mut guard = 0;
        while chosen.len() < m && guard < 50 * m {
            guard += 1;
            let pick = urn[rng.next_below(urn.len() as u64) as usize];
            if pick != v && !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        for &t in &chosen {
            edges.push(Edge::new(v, t));
            if reciprocity > 0.0 && rng.next_f64() < reciprocity {
                edges.push(Edge::new(t, v));
            }
            urn.push(v);
            urn.push(t);
        }
    }
    edges.sort_unstable();
    EdgeList::with_vertex_count(edges, n).expect("BA ids are in range")
}

/// Generate a Chung–Lu graph with the given expected-degree weights. Each
/// edge `(i, j)` appears with probability `w_i * w_j / sum(w)` (clamped).
/// Used for custom degree-profile experiments.
pub fn chung_lu(weights: &[f64], seed: u64) -> EdgeList {
    let n = weights.len() as u64;
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must have positive sum");
    let mut rng = Xoshiro256::new(seed);
    // Efficient edge-skipping sampler over the weight-sorted order would be
    // O(m); for the modest sizes used in experiments an expected-edges
    // Bernoulli pass per vertex against a sampled candidate set suffices.
    // We approximate by sampling `round(total/2)` edges from the weight
    // distribution on both endpoints (the standard fast Chung–Lu sampler).
    let m = (total / 2.0).round() as usize;
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let sample = |rng: &mut Xoshiro256, cumulative: &[f64]| -> u64 {
        let x = rng.next_f64() * total;
        match cumulative.binary_search_by(|c| c.partial_cmp(&x).unwrap()) {
            Ok(i) | Err(i) => (i as u64).min(n - 1),
        }
    };
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u = sample(&mut rng, &cumulative);
        let v = sample(&mut rng, &cumulative);
        if u != v {
            edges.push(Edge::new(u, v));
        }
    }
    edges.sort_unstable();
    EdgeList::with_vertex_count(edges, n).expect("CL ids are in range")
}

/// Parameters for [`rmat`]: the recursive quadrant probabilities.
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Number of edges to generate.
    pub edges: usize,
    /// Quadrant probabilities; must sum to ~1. The classic skewed setting
    /// `(0.57, 0.19, 0.19, 0.05)` produces web-graph-like power laws.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// Lower-right quadrant probability.
    pub d: f64,
}

impl RmatParams {
    /// The classic web-graph parameterization (Graph500 uses the same).
    pub fn web_graph(scale: u32, edges: usize) -> Self {
        RmatParams {
            scale,
            edges,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        }
    }
}

/// Generate an R-MAT graph. R-MAT with skewed quadrant probabilities yields
/// a power-law degree distribution *with the full low-degree head* — many
/// degree-0/1/2 vertices — which is the UK-web signature the paper contrasts
/// against Twitter/LiveJournal in Fig 5.8.
pub fn rmat(params: &RmatParams, seed: u64) -> EdgeList {
    let sum = params.a + params.b + params.c + params.d;
    assert!(
        (sum - 1.0).abs() < 1e-6,
        "quadrant probabilities must sum to 1, got {sum}"
    );
    let mut rng = Xoshiro256::new(seed);
    let n = 1u64 << params.scale;
    let mut edges = Vec::with_capacity(params.edges);
    for _ in 0..params.edges {
        let (mut x0, mut x1) = (0u64, n);
        let (mut y0, mut y1) = (0u64, n);
        while x1 - x0 > 1 {
            // Mild parameter noise per level (as in the original R-MAT paper)
            // avoids exactly repeated quadrant structure.
            let noise = 0.9 + 0.2 * rng.next_f64();
            let a = params.a * noise;
            let b = params.b * (2.0 - noise);
            let c = params.c * (2.0 - noise);
            let d = params.d * noise;
            let total = a + b + c + d;
            let r = rng.next_f64() * total;
            let (mx, my) = ((x0 + x1) / 2, (y0 + y1) / 2);
            if r < a {
                x1 = mx;
                y1 = my;
            } else if r < a + b {
                x0 = mx;
                y1 = my;
            } else if r < a + b + c {
                x1 = mx;
                y0 = my;
            } else {
                x0 = mx;
                y0 = my;
            }
        }
        edges.push(Edge::new(x0, y0));
    }
    edges.sort_unstable();
    EdgeList::with_vertex_count(edges, n).expect("R-MAT ids are in range")
}

/// Mean pages per web domain (domain sizes are Pareto-distributed).
const MEAN_PAGES: f64 = 40.0;
/// Probability a web out-link stays inside its own domain. Real crawls are
/// dominated by intra-host navigation links (~75%+).
const INTRA_LINK_PROBABILITY: f64 = 0.75;
/// Mean out-links per web page (per-page out-degrees are Pareto-distributed).
const MEAN_OUT_DEGREE: f64 = 11.0;

/// Generate a web-crawl analogue of `domains` hosts (the UK-web signature):
///
/// * **power-law in-degrees with a full low-degree head** — global links are
///   preferential-attachment, so hub pages collect huge in-degrees while
///   most pages keep in-degree 0–2 (the Fig 5.8 UK-web profile);
/// * **host locality** — pages of a domain have contiguous ids and ~75% of
///   links stay intra-domain, which is exactly the structure that lets the
///   greedy streaming heuristics (Oblivious/HDRF) co-locate whole domains
///   and beat the constrained hash strategies on web graphs (§5.4.2).
///
/// Pages of a domain get contiguous ids, like the LAW/BV orderings of real
/// crawls.
pub fn web_graph(domains: u64, seed: u64) -> EdgeList {
    assert!(domains >= 2, "need at least two domains");
    let mut rng = Xoshiro256::new(seed);
    // Pareto(alpha) sampler via inverse transform, capped.
    let pareto = |rng: &mut Xoshiro256, min: f64, alpha: f64, cap: f64| -> f64 {
        let u: f64 = rng.next_f64().max(1e-12);
        (min / u.powf(1.0 / alpha)).min(cap)
    };
    // Domain sizes: Pareto(1.7) with the requested mean.
    let raw: Vec<f64> = (0..domains)
        .map(|_| pareto(&mut rng, 1.0, 1.7, 400.0))
        .collect();
    let raw_mean = raw.iter().sum::<f64>() / raw.len() as f64;
    let sizes: Vec<u64> = raw
        .iter()
        .map(|r| ((r / raw_mean * MEAN_PAGES).round() as u64).max(1))
        .collect();
    let starts: Vec<u64> = sizes
        .iter()
        .scan(0u64, |acc, &s| {
            let start = *acc;
            *acc += s;
            Some(start)
        })
        .collect();
    let n: u64 = sizes.iter().sum();
    // Preferential-attachment urn for global links, seeded with each
    // domain's front page.
    let mut urn: Vec<u64> = starts.clone();
    let mut edges: Vec<Edge> = Vec::new();
    for (&start, &size) in starts.iter().zip(&sizes) {
        for page in start..start + size {
            let out_deg = pareto(&mut rng, MEAN_OUT_DEGREE / 2.2, 2.0, 250.0).round() as u64;
            for _ in 0..out_deg {
                let intra = size > 1 && rng.next_f64() < INTRA_LINK_PROBABILITY;
                let target = if intra {
                    // Intra-domain links concentrate on the domain's front
                    // pages (index/nav structure), leaving deep pages with
                    // in-degree 0-2 — the full low-degree head of Fig 5.8.
                    let r = rng.next_f64();
                    let t = start + ((r * r * r) * size as f64) as u64;
                    if t == page {
                        continue;
                    }
                    t
                } else {
                    let t = urn[rng.next_below(urn.len() as u64) as usize];
                    if t == page {
                        continue;
                    }
                    urn.push(t); // rich get richer
                    t
                };
                edges.push(Edge::new(page, target));
            }
        }
    }
    edges.sort_unstable();
    EdgeList::with_vertex_count(edges, n).expect("web ids are in range")
}

/// Parameters for [`bipartite`].
#[derive(Debug, Clone)]
pub struct BipartiteParams {
    /// Vertices on the source side (e.g. buyers/users). Ids `0..users`.
    pub users: u64,
    /// Vertices on the target side (e.g. items). Ids `users..users+items`.
    /// Real recommendation bipartite graphs are heavily unbalanced —
    /// typically far more users than items.
    pub items: u64,
    /// Mean edges per user (per-user counts are Pareto-distributed).
    pub mean_edges_per_user: f64,
    /// Zipf-like skew of item popularity (0 = uniform; ~0.8 realistic).
    pub popularity_skew: f64,
}

impl Default for BipartiteParams {
    fn default() -> Self {
        BipartiteParams {
            users: 40_000,
            items: 2_000,
            mean_edges_per_user: 12.0,
            popularity_skew: 0.8,
        }
    }
}

/// Generate a bipartite user→item graph (the buyers-and-items class from the
/// paper's introduction, and the target of PowerLyra's bipartite-oriented
/// partitioning extension [Chen et al., APSys'14]). Users have ids
/// `0..users`, items `users..users+items`; all edges point user → item, with
/// Zipf-skewed item popularity.
pub fn bipartite(params: &BipartiteParams, seed: u64) -> EdgeList {
    assert!(
        params.users >= 1 && params.items >= 1,
        "both sides must be non-empty"
    );
    let mut rng = Xoshiro256::new(seed);
    let n = params.users + params.items;
    // Zipf sampler over items via inverse-CDF on precomputed weights.
    let weights: Vec<f64> = (1..=params.items)
        .map(|r| 1.0 / (r as f64).powf(params.popularity_skew))
        .collect();
    let total: f64 = weights.iter().sum();
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let mut edges: Vec<Edge> = Vec::new();
    for user in 0..params.users {
        let u: f64 = rng.next_f64().max(1e-12);
        let count = ((params.mean_edges_per_user / 2.0) / u.powf(0.5)).round() as u64;
        let count = count.clamp(1, params.items);
        for _ in 0..count {
            let x = rng.next_f64() * total;
            let idx = match cumulative.binary_search_by(|c| c.partial_cmp(&x).unwrap()) {
                Ok(i) | Err(i) => (i as u64).min(params.items - 1),
            };
            edges.push(Edge::new(user, params.users + idx));
        }
    }
    edges.sort_unstable();
    EdgeList::with_vertex_count(edges, n).expect("bipartite ids are in range")
}

/// Generate a uniform Erdős–Rényi `G(n, m)` graph (baseline / tests).
pub fn erdos_renyi(n: u64, m: usize, seed: u64) -> EdgeList {
    assert!(n >= 2, "need at least two vertices");
    let mut rng = Xoshiro256::new(seed);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.next_below(n);
        let v = rng.next_below(n);
        if u != v {
            edges.push(Edge::new(u, v));
        }
    }
    EdgeList::with_vertex_count(edges, n).expect("ER ids are in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_core::{GraphStats, VertexId};

    #[test]
    fn road_network_has_bounded_low_degree() {
        let g = road_network(&RoadNetworkParams::default(), 7);
        let stats = GraphStats::compute(&g);
        // Lattice degree <= 4 each direction, plus rare shortcuts.
        assert!(
            stats.max_in_degree <= 10,
            "max in-degree {}",
            stats.max_in_degree
        );
        assert!(stats.mean_degree < 10.0);
        assert!(g.num_edges() > 100_000); // 200x200 grid, ~2 links each, doubled
    }

    #[test]
    fn road_network_is_symmetric() {
        let g = road_network(
            &RoadNetworkParams {
                width: 12,
                height: 12,
                ..Default::default()
            },
            3,
        );
        let set: std::collections::HashSet<_> = g.edges().iter().copied().collect();
        for e in g.edges() {
            assert!(set.contains(&e.reversed()), "missing reverse of {e:?}");
        }
    }

    #[test]
    fn barabasi_albert_has_heavy_tail_without_low_degree_head() {
        let g = barabasi_albert(20_000, 8, 11);
        let deg = g.degrees();
        let max_deg = deg.max_degree();
        assert!(max_deg > 200, "expected a hub, max degree {max_deg}");
        // Depleted low-degree head: essentially no vertices of total degree <= 2.
        let stats = GraphStats::compute(&g);
        assert!(
            stats.low_degree_fraction < 0.01,
            "BA should have almost no low-degree vertices, got {}",
            stats.low_degree_fraction
        );
    }

    #[test]
    fn barabasi_albert_edge_count_close_to_nm() {
        let (n, m) = (5_000u64, 6u32);
        let g = barabasi_albert(n, m, 2);
        let expected = (n - m as u64 - 1) * m as u64;
        let got = g.num_edges() as u64;
        assert!(
            got >= expected - n / 10 && got <= expected + m as u64 + 1,
            "got {got}, expected ~{expected}"
        );
    }

    #[test]
    fn rmat_has_full_low_degree_head() {
        let g = rmat(&RmatParams::web_graph(15, 200_000), 13);
        let stats = GraphStats::compute(&g);
        assert!(
            stats.low_degree_fraction > 0.3,
            "R-MAT should have a large low-degree head, got {}",
            stats.low_degree_fraction
        );
        assert!(
            stats.max_in_degree > 500,
            "R-MAT should have hubs, got {}",
            stats.max_in_degree
        );
    }

    #[test]
    fn erdos_renyi_has_exact_edge_count_and_no_self_loops() {
        let g = erdos_renyi(1000, 5000, 17);
        assert_eq!(g.num_edges(), 5000);
        assert!(!g.edges().iter().any(|e| e.is_self_loop()));
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = barabasi_albert(2000, 4, 9);
        let b = barabasi_albert(2000, 4, 9);
        assert_eq!(a.edges(), b.edges());
        let c = barabasi_albert(2000, 4, 10);
        assert_ne!(a.edges(), c.edges());
        let r1 = rmat(&RmatParams::web_graph(10, 5000), 4);
        let r2 = rmat(&RmatParams::web_graph(10, 5000), 4);
        assert_eq!(r1.edges(), r2.edges());
    }

    #[test]
    fn chung_lu_tracks_weight_profile() {
        // Two-tier profile: 10 heavy vertices, 990 light.
        let mut weights = vec![2.0; 1000];
        for w in weights.iter_mut().take(10) {
            *w = 300.0;
        }
        let g = chung_lu(&weights, 21);
        let deg = g.degrees();
        let heavy_avg: f64 = (0..10).map(|i| deg.degree(VertexId(i)) as f64).sum::<f64>() / 10.0;
        let light_avg: f64 = (10..1000)
            .map(|i| deg.degree(VertexId(i)) as f64)
            .sum::<f64>()
            / 990.0;
        assert!(
            heavy_avg > 20.0 * light_avg,
            "heavy {heavy_avg} vs light {light_avg}"
        );
    }

    #[test]
    fn edge_stream_is_source_sorted_like_snap_files() {
        for g in [
            barabasi_albert(5_000, 5, 3),
            rmat(&RmatParams::web_graph(12, 20_000), 3),
            road_network(
                &RoadNetworkParams {
                    width: 30,
                    height: 30,
                    ..Default::default()
                },
                3,
            ),
        ] {
            assert!(
                g.edges().windows(2).all(|w| w[0] <= w[1]),
                "edge stream must be (src, dst)-sorted"
            );
        }
    }
}

#[cfg(test)]
mod bipartite_tests {
    use super::*;
    use gp_core::VertexId;

    #[test]
    fn bipartite_edges_only_cross_sides() {
        let p = BipartiteParams {
            users: 500,
            items: 50,
            ..Default::default()
        };
        let g = bipartite(&p, 3);
        for e in g.edges() {
            assert!(e.src.0 < 500, "source must be a user");
            assert!((500..550).contains(&e.dst.0), "target must be an item");
        }
        assert_eq!(g.num_vertices(), 550);
    }

    #[test]
    fn popular_items_dominate() {
        let p = BipartiteParams {
            users: 5_000,
            items: 100,
            popularity_skew: 1.0,
            ..Default::default()
        };
        let g = bipartite(&p, 7);
        let deg = g.degrees();
        let top = deg.in_degree(VertexId(5_000));
        let tail = deg.in_degree(VertexId(5_099));
        assert!(top > 10 * tail.max(1), "Zipf head {top} vs tail {tail}");
    }

    #[test]
    fn bipartite_is_deterministic() {
        let p = BipartiteParams::default();
        assert_eq!(bipartite(&p, 1).edges(), bipartite(&p, 1).edges());
    }

    #[test]
    fn every_user_has_at_least_one_edge() {
        let p = BipartiteParams {
            users: 300,
            items: 30,
            ..Default::default()
        };
        let g = bipartite(&p, 9);
        let deg = g.degrees();
        for u in 0..300 {
            assert!(deg.out_degree(VertexId(u)) >= 1, "user {u} has no edges");
        }
    }
}
