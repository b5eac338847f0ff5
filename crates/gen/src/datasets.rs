//! Dataset registry mirroring Table 4.2 at laptop scale.
//!
//! Each [`Dataset`] variant corresponds to a row of Table 4.2. `generate`
//! produces a synthetic analogue whose *degree-class signature* matches the
//! real graph (verified by `gp_gen::classify`); `paper_*` accessors return
//! the real dataset's size for the Table 4.2 reproduction. The default scale
//! (1.0) keeps the largest analogue around 1.5M edges so the full experiment
//! suite runs in minutes; relative sizes roughly track the real datasets.

use crate::analysis::GraphClass;
use crate::generators::{barabasi_albert_reciprocal, road_network, web_graph, RoadNetworkParams};
use gp_core::EdgeList;

/// The six datasets of Table 4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// California road network (SNAP). 5.5M edges, 1.9M vertices, low-degree.
    RoadNetCa,
    /// Full USA road network (DIMACS 9). 57.5M edges, 23.6M vertices, low-degree.
    RoadNetUsa,
    /// LiveJournal social network (SNAP). 68.5M edges, 4.8M vertices, heavy-tailed.
    LiveJournal,
    /// English Wikipedia link graph, 2013 (LAW). 101M edges, 4.2M vertices, heavy-tailed.
    Enwiki2013,
    /// Twitter follower graph (Kwak et al.). 1.46B edges, 41.6M vertices, heavy-tailed.
    Twitter,
    /// UK web crawl (LAW). 3.71B edges, 105.1M vertices, power-law.
    UkWeb,
}

/// Static description of a dataset: the Table 4.2 row plus generation recipe.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Short name as used in the paper's figures.
    pub name: &'static str,
    /// Real dataset's edge count (Table 4.2).
    pub paper_edges: u64,
    /// Real dataset's vertex count (Table 4.2).
    pub paper_vertices: u64,
    /// Degree class (Table 4.2 "Type").
    pub class: GraphClass,
    /// Source listed in the paper.
    pub source: &'static str,
}

impl Dataset {
    /// All six datasets in Table 4.2 order.
    pub const ALL: [Dataset; 6] = [
        Dataset::RoadNetCa,
        Dataset::RoadNetUsa,
        Dataset::LiveJournal,
        Dataset::Enwiki2013,
        Dataset::Twitter,
        Dataset::UkWeb,
    ];

    /// The five datasets used in the PowerGraph/PowerLyra chapters (§5.3:
    /// road-net-CA, road-net-USA, LiveJournal, Twitter, UK-web).
    pub const POWERGRAPH_SET: [Dataset; 5] = [
        Dataset::RoadNetCa,
        Dataset::RoadNetUsa,
        Dataset::LiveJournal,
        Dataset::Twitter,
        Dataset::UkWeb,
    ];

    /// The four datasets used for GraphX (§7.3: Twitter and UK-web OOM'd, so
    /// Enwiki-2013 replaces them).
    pub const GRAPHX_SET: [Dataset; 4] = [
        Dataset::RoadNetCa,
        Dataset::RoadNetUsa,
        Dataset::LiveJournal,
        Dataset::Enwiki2013,
    ];

    /// Table 4.2 row for this dataset.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::RoadNetCa => DatasetSpec {
                name: "road-net-CA",
                paper_edges: 5_500_000,
                paper_vertices: 1_900_000,
                class: GraphClass::LowDegree,
                source: "SNAP",
            },
            Dataset::RoadNetUsa => DatasetSpec {
                name: "road-net-USA",
                paper_edges: 57_500_000,
                paper_vertices: 23_600_000,
                class: GraphClass::LowDegree,
                source: "DIMACS 9",
            },
            Dataset::LiveJournal => DatasetSpec {
                name: "LiveJournal",
                paper_edges: 68_500_000,
                paper_vertices: 4_800_000,
                class: GraphClass::HeavyTailed,
                source: "SNAP",
            },
            Dataset::Enwiki2013 => DatasetSpec {
                name: "Enwiki-2013",
                paper_edges: 101_000_000,
                paper_vertices: 4_200_000,
                class: GraphClass::HeavyTailed,
                source: "LAW",
            },
            Dataset::Twitter => DatasetSpec {
                name: "Twitter",
                paper_edges: 1_460_000_000,
                paper_vertices: 41_600_000,
                class: GraphClass::HeavyTailed,
                source: "Kwak et al. (WWW'10)",
            },
            Dataset::UkWeb => DatasetSpec {
                name: "UK-web",
                paper_edges: 3_710_000_000,
                paper_vertices: 105_100_000,
                class: GraphClass::PowerLaw,
                source: "LAW",
            },
        }
    }

    /// Approximate analogue edge count at `scale = 1.0`. The anchor for
    /// [`scale_for_edges`]: asking for this many edges yields scale 1.
    ///
    /// [`scale_for_edges`]: Dataset::scale_for_edges
    pub fn analogue_base_edges(self) -> u64 {
        match self {
            Dataset::RoadNetCa => 170_000,
            Dataset::RoadNetUsa => 560_000,
            Dataset::LiveJournal => 750_000,
            Dataset::Enwiki2013 => 1_000_000,
            Dataset::Twitter => 1_500_000,
            Dataset::UkWeb => 1_200_000,
        }
    }

    /// The `scale` value that makes `generate` produce roughly
    /// `target_edges` edges (sizes are approximate: generators round lattice
    /// sides and attachment counts).
    pub fn scale_for_edges(self, target_edges: u64) -> f64 {
        assert!(target_edges > 0, "target edge count must be positive");
        target_edges as f64 / self.analogue_base_edges() as f64
    }

    /// Generate an analogue sized by edge count instead of abstract scale —
    /// the `--edges` CLI knob. Equivalent to
    /// `generate(scale_for_edges(target_edges), seed)`.
    pub fn generate_with_edges(self, target_edges: u64, seed: u64) -> EdgeList {
        self.generate(self.scale_for_edges(target_edges), seed)
    }

    /// `Ok(scale)` if a front end may pass it to [`Dataset::generate`]:
    /// positive and at most 1000, where the largest analogue already has
    /// about 1.5 billion edges. Otherwise `Err` naming the rule, as in
    /// "must be in (0, 1000], got NaN": a NaN or zero scale fails
    /// `generate`'s assertion, and an infinite or huge one exhausts memory.
    pub fn check_scale(scale: f64) -> Result<f64, String> {
        if scale > 0.0 && scale <= 1000.0 {
            Ok(scale)
        } else {
            Err(format!("must be in (0, 1000], got {scale}"))
        }
    }

    /// Generate the synthetic analogue at `scale` (1.0 = default mini sizes;
    /// 0.1 = smoke-test sizes). Deterministic per (dataset, scale, seed).
    ///
    /// ```
    /// use gp_gen::{classify, Dataset, GraphClass};
    /// let g = Dataset::RoadNetCa.generate(0.1, 42);
    /// assert_eq!(classify(&g), GraphClass::LowDegree);
    /// ```
    pub fn generate(self, scale: f64, seed: u64) -> EdgeList {
        assert!(scale > 0.0, "scale must be positive");
        let s = |base: u64| ((base as f64 * scale).max(4.0)) as u64;
        let side = |base: u32| ((base as f64 * scale.sqrt()).max(4.0)) as u32;
        match self {
            // ~46k vertices, ~170k directed edges at scale 1.
            Dataset::RoadNetCa => road_network(
                &RoadNetworkParams {
                    width: side(215),
                    height: side(215),
                    link_probability: 0.94,
                    shortcut_fraction: 0.01,
                },
                seed ^ 0x0ca0,
            ),
            // ~150k vertices, ~560k directed edges at scale 1.
            Dataset::RoadNetUsa => road_network(
                &RoadNetworkParams {
                    width: side(390),
                    height: side(390),
                    link_probability: 0.96,
                    shortcut_fraction: 0.005,
                },
                seed ^ 0x05a0,
            ),
            // ~55k vertices, ~750k edges; friendships are mostly mutual.
            Dataset::LiveJournal => barabasi_albert_reciprocal(s(55_000), 8, 0.70, seed ^ 0x11fe),
            // ~42k vertices, ~1.0M edges; wiki links are rarely reciprocal.
            Dataset::Enwiki2013 => barabasi_albert_reciprocal(s(42_000), 23, 0.06, seed ^ 0xe419),
            // ~80k vertices, ~1.5M edges; ~22% of follows are mutual
            // (Kwak et al., WWW'10).
            Dataset::Twitter => barabasi_albert_reciprocal(s(80_000), 15, 0.22, seed ^ 0x7717),
            // ~120k vertices, ~1.2M edges; full power-law head plus the
            // host-locality real crawls have (see `web_graph`).
            Dataset::UkWeb => web_graph(s(3_000), seed ^ 0x0b0b),
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::classify;

    #[test]
    fn all_registry_names_are_unique() {
        let names: std::collections::HashSet<_> =
            Dataset::ALL.iter().map(|d| d.spec().name).collect();
        assert_eq!(names.len(), Dataset::ALL.len());
    }

    #[test]
    fn analogues_match_declared_degree_class() {
        for d in [Dataset::RoadNetCa, Dataset::LiveJournal, Dataset::UkWeb] {
            let g = d.generate(0.5, 42);
            assert_eq!(classify(&g), d.spec().class, "dataset {d}");
        }
    }

    #[test]
    fn relative_sizes_track_the_paper() {
        let ca = Dataset::RoadNetCa.generate(0.25, 1).num_edges();
        let usa = Dataset::RoadNetUsa.generate(0.25, 1).num_edges();
        let lj = Dataset::LiveJournal.generate(0.25, 1).num_edges();
        let uk = Dataset::UkWeb.generate(0.25, 1).num_edges();
        assert!(ca < usa, "road-CA < road-USA");
        assert!(ca < lj, "road-CA < LiveJournal");
        assert!(lj < uk, "LiveJournal < UK-web");
    }

    #[test]
    fn scale_controls_size_monotonically() {
        let small = Dataset::LiveJournal.generate(0.1, 3).num_edges();
        let large = Dataset::LiveJournal.generate(0.5, 3).num_edges();
        assert!(
            large > 3 * small,
            "scale 0.5 ({large}) should dwarf scale 0.1 ({small})"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::Twitter.generate(0.1, 9);
        let b = Dataset::Twitter.generate(0.1, 9);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn edge_targeting_lands_near_the_request() {
        for d in [Dataset::LiveJournal, Dataset::RoadNetCa, Dataset::UkWeb] {
            for target in [50_000u64, 300_000] {
                let got = d.generate_with_edges(target, 2).num_edges() as f64;
                let ratio = got / target as f64;
                assert!(
                    (0.5..2.0).contains(&ratio),
                    "{d}: asked {target}, got {got} (ratio {ratio:.2})"
                );
            }
        }
    }

    #[test]
    fn table_4_2_rows_are_complete() {
        for d in Dataset::ALL {
            let s = d.spec();
            assert!(s.paper_edges > 0 && s.paper_vertices > 0);
            assert!(!s.name.is_empty() && !s.source.is_empty());
        }
    }
}
